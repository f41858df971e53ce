#include "analysis/racecheck.hpp"

#if CAKE_RACECHECK_ENABLED

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/checked.hpp"

namespace cake {
namespace racecheck {

namespace {

// The engine is deliberately simple: one global mutex serialises every
// hook, and clocks are plain vectors indexed by a process-lifetime thread
// uid. A racecheck build is a correctness instrument, not a fast path —
// what matters is that the happens-before relation it maintains is exactly
// the one the executor's fork/join/barrier protocol promises, so a clean
// run is a proof for the schedule that actually executed.

using ClockVec = std::vector<std::uint64_t>;

void join_into(ClockVec& dst, const ClockVec& src)
{
    if (dst.size() < src.size()) dst.resize(src.size(), 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = std::max(dst[i], src[i]);
    }
}

/// Per-OS-thread logical clock plus the team tid it currently runs as.
struct ThreadState {
    int uid = -1;
    int team_tid = -1;
    ClockVec clock;

    [[nodiscard]] std::uint64_t now() const
    {
        return clock[static_cast<std::size_t>(uid)];
    }
    void tick() { ++clock[static_cast<std::size_t>(uid)]; }
};

/// Fork/join clocks of one ThreadPool dispatch, keyed by pool address.
struct PoolState {
    ClockVec fork_clock;  ///< caller's clock at dispatch
    ClockVec join_clock;  ///< join of every member's clock at exit
};

/// One SpinBarrier's gather/release clocks, keyed by barrier address.
/// Arrivals of generation g merge into `gather`; when the last participant
/// has arrived the gather becomes released[g], which departers of g merge
/// back into their own clocks. The map (instead of a single slot) tolerates
/// a slow departer still draining generation g while its teammates already
/// arrive at g+1.
struct BarrierState {
    ClockVec gather;
    int arrivals = 0;
    std::map<long, ClockVec> released;
};

struct ReaderEntry {
    int uid = -1;
    int team_tid = -1;
    std::uint64_t clk = 0;
    AccessSite site;
};

/// FastTrack-style shadow cell: the last write epoch plus the set of reads
/// since that write (one entry per thread).
struct TileShadow {
    int w_uid = -1;
    int w_team_tid = -1;
    std::uint64_t w_clk = 0;
    AccessSite w_site;
    std::vector<ReaderEntry> readers;
};

struct Region {
    std::string name;
    index_t tiles = 0;
    index_t tiles_per_row = 0;
    bool active = false;
    std::vector<TileShadow> shadow;
};

struct Global {
    std::mutex mu;
    std::deque<ThreadState> threads;  // deque: stable addresses for TLS
    std::unordered_map<const void*, PoolState> pools;
    std::unordered_map<const void*, BarrierState> barriers;
    std::deque<Region> regions;
    std::uint64_t races = 0;
    unsigned severed_mask = 0;
};

Global& global()
{
    static Global g;
    return g;
}

/// Calling thread's state; assigns a fresh uid on first use.
/// global().mu must be held.
ThreadState& self(Global& g)
{
    thread_local ThreadState* ts = nullptr;
    if (ts == nullptr) {
        g.threads.emplace_back();
        ts = &g.threads.back();
        ts->uid = static_cast<int>(g.threads.size()) - 1;
        ts->clock.assign(static_cast<std::size_t>(ts->uid) + 1, 0);
        ts->clock[static_cast<std::size_t>(ts->uid)] = 1;
    }
    return *ts;
}

bool severed(const Global& g, Edge edge)
{
    return (g.severed_mask & (1u << static_cast<unsigned>(edge))) != 0;
}

/// True iff the event (uid, clk) happened before thread t's current point.
bool ordered(int uid, std::uint64_t clk, const ThreadState& t)
{
    if (uid < 0 || clk == 0) return true;  // no prior event
    const auto u = static_cast<std::size_t>(uid);
    return u < t.clock.size() && t.clock[u] >= clk;
}

const char* phase_name(Phase phase)
{
    switch (phase) {
        case Phase::kPack: return "pack";
        case Phase::kCompute: return "compute";
        case Phase::kNone: break;
    }
    return "?";
}

const char* kind_name(AccessKind kind)
{
    return kind == AccessKind::kWrite ? "write" : "read";
}

void describe_thread(std::ostream& os, int uid, int team_tid)
{
    if (team_tid >= 0) {
        os << "worker " << team_tid << " (thread#" << uid << ")";
    } else {
        os << "thread#" << uid;
    }
}

void describe_site(std::ostream& os, const AccessSite& site)
{
    os << "step " << site.step << ", block (" << site.bm << ", " << site.bn
       << ", " << site.bk << "), phase " << phase_name(site.phase);
}

/// Build the coded diagnostic and trap. Must be entered with the global
/// lock HELD; releases it before calling checked::fail so a throwing test
/// trap handler cannot leave the engine mutex locked.
[[noreturn]] void report_race(std::unique_lock<std::mutex>& lock, Global& g,
                              const char* code, const Region& region,
                              index_t tile, AccessKind cur_kind,
                              const AccessSite& cur_site,
                              const ThreadState& cur_thread,
                              const char* prior_kind,
                              const AccessSite& prior_site, int prior_uid,
                              int prior_team_tid)
{
    ++g.races;
    std::ostringstream os;
    os << code << ": region '" << region.name << "' tile " << tile;
    if (region.tiles_per_row > 0) {
        os << " (row " << tile / region.tiles_per_row << ", col-sliver "
           << tile % region.tiles_per_row << ")";
    }
    os << ": " << kind_name(cur_kind) << " by ";
    describe_thread(os, cur_thread.uid, cur_thread.team_tid);
    os << " at [";
    describe_site(os, cur_site);
    os << "] has no happens-before edge from prior " << prior_kind << " by ";
    describe_thread(os, prior_uid, prior_team_tid);
    os << " at [";
    describe_site(os, prior_site);
    os << "]";
    const std::string message = os.str();
    lock.unlock();
    checked::fail("racecheck", message);
}

void access_one(std::unique_lock<std::mutex>& lock, Global& g, Region& region,
                index_t tile, AccessKind kind, const AccessSite& site)
{
    ThreadState& t = self(g);
    if (tile < 0 || tile >= region.tiles) {
        ++g.races;
        std::ostringstream os;
        os << "RC_TILE_RANGE: region '" << region.name << "' tile " << tile
           << " outside [0, " << region.tiles << ") at [";
        describe_site(os, site);
        os << "] — executor annotation bug";
        const std::string message = os.str();
        lock.unlock();
        checked::fail("racecheck", message);
    }
    TileShadow& s = region.shadow[static_cast<std::size_t>(tile)];
    if (kind == AccessKind::kRead) {
        if (!ordered(s.w_uid, s.w_clk, t)) {
            report_race(lock, g, "RC_RACE_RW", region, tile, kind, site, t,
                        "write", s.w_site, s.w_uid, s.w_team_tid);
        }
        for (ReaderEntry& r : s.readers) {
            if (r.uid == t.uid) {
                r.clk = t.now();
                r.team_tid = t.team_tid;
                r.site = site;
                return;
            }
        }
        s.readers.push_back({t.uid, t.team_tid, t.now(), site});
        return;
    }
    if (!ordered(s.w_uid, s.w_clk, t)) {
        report_race(lock, g, "RC_RACE_WW", region, tile, kind, site, t,
                    "write", s.w_site, s.w_uid, s.w_team_tid);
    }
    for (const ReaderEntry& r : s.readers) {
        if (r.uid != t.uid && !ordered(r.uid, r.clk, t)) {
            report_race(lock, g, "RC_RACE_WR", region, tile, kind, site, t,
                        "read", r.site, r.uid, r.team_tid);
        }
    }
    s.readers.clear();
    s.w_uid = t.uid;
    s.w_team_tid = t.team_tid;
    s.w_clk = t.now();
    s.w_site = site;
}

/// Live region for a handle, or nullptr for id 0 / retired regions.
Region* region_for(Global& g, RegionId id)
{
    if (id == 0 || id > g.regions.size()) return nullptr;
    Region& r = g.regions[static_cast<std::size_t>(id) - 1];
    return r.active ? &r : nullptr;
}

}  // namespace

void on_pool_create(const void* pool)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    // A pool constructed at a recycled address must not inherit the old
    // pool's fork/join clocks (they would fabricate HB edges).
    g.pools.erase(pool);
}

void on_fork(const void* pool)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    PoolState& ps = g.pools[pool];
    ps.fork_clock = t.clock;
    ps.join_clock.clear();
    t.tick();
}

void on_worker_enter(const void* pool, int tid)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    if (!severed(g, Edge::kFork)) {
        auto it = g.pools.find(pool);
        if (it != g.pools.end()) join_into(t.clock, it->second.fork_clock);
    }
    t.team_tid = tid;
    t.tick();
}

void on_worker_exit(const void* pool)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    join_into(g.pools[pool].join_clock, t.clock);
    t.team_tid = -1;
    t.tick();
}

void on_join(const void* pool)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    if (!severed(g, Edge::kJoin)) {
        auto it = g.pools.find(pool);
        if (it != g.pools.end()) join_into(t.clock, it->second.join_clock);
    }
    t.tick();
}

void on_barrier_create(const void* barrier)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    // Barriers live on run_team stacks; drop any state a previous barrier
    // left behind at the same address.
    g.barriers.erase(barrier);
}

void on_barrier_arrive(const void* barrier, long generation, int participants)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    BarrierState& b = g.barriers[barrier];
    join_into(b.gather, t.clock);
    if (++b.arrivals >= participants) {
        b.released[generation] = std::move(b.gather);
        b.gather.clear();
        b.arrivals = 0;
        // A departer more than a few generations behind is impossible with
        // a correct barrier; prune so long team loops stay O(1).
        while (b.released.size() > 8) b.released.erase(b.released.begin());
    }
    t.tick();
}

void on_barrier_depart(const void* barrier, long generation)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    ThreadState& t = self(g);
    if (!severed(g, Edge::kBarrier)) {
        auto bit = g.barriers.find(barrier);
        if (bit != g.barriers.end()) {
            auto rit = bit->second.released.find(generation);
            if (rit != bit->second.released.end()) {
                join_into(t.clock, rit->second);
            }
        }
    }
    t.tick();
}

RegionId region_register(const char* name, index_t tiles,
                         index_t tiles_per_row)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.regions.emplace_back();
    Region& r = g.regions.back();
    r.name = name;
    r.tiles = tiles;
    r.tiles_per_row = tiles_per_row;
    r.active = true;
    r.shadow.assign(static_cast<std::size_t>(std::max<index_t>(tiles, 0)),
                    TileShadow{});
    return static_cast<RegionId>(g.regions.size());
}

void region_retire(RegionId id)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    if (Region* r = region_for(g, id)) {
        r->active = false;
        r->shadow.clear();
        r->shadow.shrink_to_fit();
    }
}

void region_access(RegionId id, index_t tile, AccessKind kind,
                   const AccessSite& site)
{
    Global& g = global();
    std::unique_lock<std::mutex> lock(g.mu);
    if (Region* r = region_for(g, id)) {
        access_one(lock, g, *r, tile, kind, site);
    }
}

void region_access_range(RegionId id, index_t begin, index_t end,
                         AccessKind kind, const AccessSite& site)
{
    Global& g = global();
    std::unique_lock<std::mutex> lock(g.mu);
    if (Region* r = region_for(g, id)) {
        for (index_t tile = begin; tile < end; ++tile) {
            access_one(lock, g, *r, tile, kind, site);
        }
    }
}

void region_access_block(RegionId id, index_t row_begin, index_t row_end,
                         index_t col_begin, index_t col_end, AccessKind kind,
                         const AccessSite& site)
{
    Global& g = global();
    std::unique_lock<std::mutex> lock(g.mu);
    Region* r = region_for(g, id);
    if (r == nullptr) return;
    for (index_t row = row_begin; row < row_end; ++row) {
        for (index_t col = col_begin; col < col_end; ++col) {
            access_one(lock, g, *r, row * r->tiles_per_row + col, kind,
                       site);
        }
    }
}

int current_tid()
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    return self(g).team_tid;
}

std::uint64_t race_count()
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    return g.races;
}

void test_sever_edge(Edge edge)
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.severed_mask |= 1u << static_cast<unsigned>(edge);
}

void test_restore_edges()
{
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    g.severed_mask = 0;
}

}  // namespace racecheck
}  // namespace cake

#endif  // CAKE_RACECHECK_ENABLED
