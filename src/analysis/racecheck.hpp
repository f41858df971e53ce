// Happens-before race auditor for the CB-block executors.
//
// The pipelined executor's correctness rests on a hand-rolled handoff
// protocol: while block i is computed out of one half of the double-buffered
// pack panels, block i+1 is packed into the other half, and SpinBarrier
// crossings are the only thing keeping those accesses apart. TSan observes
// whichever interleavings the OS happens to schedule and reports violations
// as raw addresses; this subsystem instead *proves* the protocol for every
// executed schedule and reports violations in CAKE coordinates.
//
// Three pieces:
//
//   * a vector-clock happens-before engine. Hooks in ThreadPool (fork/join
//     edges around run/run_team) and SpinBarrier (arrive/depart edges per
//     generation) maintain one logical clock per OS thread, so "A happened
//     before B" is decidable for any two annotated events.
//   * a shadow-ownership map. Each multiply registers its shared surfaces
//     as *regions* divided into tiles: the four pack-buffer halves at
//     mr/nr-sliver granularity and user C in mr x nr tiles per CB block
//     (every access to it is one compute item's mr band). Every pack item
//     and compute item declares its accesses; an access
//     pair on the same tile without a happens-before edge traps through
//     checked::fail() with a diagnostic naming the region, tile, schedule
//     step, CB-block coordinate, executor phase and both threads.
//   * test-only edge severing (test_sever_edge), which makes the engine
//     ignore one class of HB edge so tests can prove the auditor actually
//     catches the race each edge prevents.
//
// Build modes follow checked.hpp: -DCAKE_RACECHECK=ON defines
// CAKE_RACECHECK=1 and enables everything; otherwise every entry point
// below is a constexpr inline no-op and racecheck.cpp compiles to an empty
// translation unit, so release objects carry no racecheck symbol at all
// (enforced by the nm scan in .github/workflows/analysis.yml).
#pragma once

#include <cstdint>

#include "common/types.hpp"

#if defined(CAKE_RACECHECK) && CAKE_RACECHECK
#define CAKE_RACECHECK_ENABLED 1
#else
#define CAKE_RACECHECK_ENABLED 0
#endif

namespace cake {
namespace racecheck {

/// Executor phase an annotated access belongs to; part of the diagnostic.
enum class Phase : int { kNone = 0, kPack, kCompute };

enum class AccessKind : int { kRead = 0, kWrite };

/// Happens-before edge classes the engine knows about. test_sever_edge()
/// disables one class so the self-validation tests can seed a race the
/// auditor must then report.
enum class Edge : int {
    kFork = 0,   ///< ThreadPool::run dispatch -> every team member
    kJoin,       ///< every team member -> ThreadPool::run return
    kBarrier,    ///< SpinBarrier arrivals of gen g -> departures of gen g
};

/// Where in the CB-block schedule an access happens. All fields are
/// diagnostic payload; -1 / kNone mean "not applicable".
struct AccessSite {
    index_t step = -1;            ///< schedule step (block sequence number)
    index_t bm = -1;              ///< CB-block grid coordinate (m, n, k)
    index_t bn = -1;
    index_t bk = -1;
    Phase phase = Phase::kNone;
};

/// Opaque region handle; 0 is "no region" and is ignored by every access.
using RegionId = std::uint32_t;

#if CAKE_RACECHECK_ENABLED

// --- thread-pool hooks (called from src/threading/thread_pool.cpp) ------
void on_pool_create(const void* pool);
void on_fork(const void* pool);
void on_worker_enter(const void* pool, int tid);
void on_worker_exit(const void* pool);
void on_join(const void* pool);

// --- barrier hooks (called from src/threading/barrier.cpp) --------------
void on_barrier_create(const void* barrier);
void on_barrier_arrive(const void* barrier, long generation,
                       int participants);
void on_barrier_depart(const void* barrier, long generation);

// --- shadow-ownership regions -------------------------------------------
/// Register a region of `tiles` shadow tiles. When `tiles_per_row` > 0 the
/// region is a 2-D grid (tiles / tiles_per_row rows) and diagnostics print
/// row/column tile coordinates.
RegionId region_register(const char* name, index_t tiles,
                         index_t tiles_per_row = 0);
/// Retire a region: its shadow state is dropped and later accesses are
/// ignored (the handle is dead).
void region_retire(RegionId id);

void region_access(RegionId id, index_t tile, AccessKind kind,
                   const AccessSite& site);
/// Declare one access to every tile in [begin, end).
void region_access_range(RegionId id, index_t begin, index_t end,
                         AccessKind kind, const AccessSite& site);
/// Declare one access to every tile of the 2-D sub-grid
/// rows [row_begin, row_end) x cols [col_begin, col_end) of a region
/// registered with tiles_per_row > 0.
void region_access_block(RegionId id, index_t row_begin, index_t row_end,
                         index_t col_begin, index_t col_end, AccessKind kind,
                         const AccessSite& site);

// --- introspection ------------------------------------------------------
/// Team tid the calling thread is currently running as (-1 outside a job).
int current_tid();
/// Races reported so far (monotonic across the process lifetime).
std::uint64_t race_count();

// --- test-only hooks ----------------------------------------------------
void test_sever_edge(Edge edge);
void test_restore_edges();

constexpr bool enabled() noexcept { return true; }

#else  // !CAKE_RACECHECK_ENABLED

// Release / unchecked builds: every hook is a constexpr no-op the
// optimiser deletes at the call site; none of the classes or state above
// exists, so no racecheck symbol can appear in release objects.

constexpr void on_pool_create(const void* /*pool*/) {}
constexpr void on_fork(const void* /*pool*/) {}
constexpr void on_worker_enter(const void* /*pool*/, int /*tid*/) {}
constexpr void on_worker_exit(const void* /*pool*/) {}
constexpr void on_join(const void* /*pool*/) {}

constexpr void on_barrier_create(const void* /*barrier*/) {}
constexpr void on_barrier_arrive(const void* /*barrier*/, long /*generation*/,
                                 int /*participants*/)
{
}
constexpr void on_barrier_depart(const void* /*barrier*/, long /*generation*/)
{
}

constexpr RegionId region_register(const char* /*name*/, index_t /*tiles*/,
                                   index_t /*tiles_per_row*/ = 0)
{
    return 0;
}
constexpr void region_retire(RegionId /*id*/) {}
constexpr void region_access(RegionId /*id*/, index_t /*tile*/,
                             AccessKind /*kind*/, const AccessSite& /*site*/)
{
}
constexpr void region_access_range(RegionId /*id*/, index_t /*begin*/,
                                   index_t /*end*/, AccessKind /*kind*/,
                                   const AccessSite& /*site*/)
{
}
constexpr void region_access_block(RegionId /*id*/, index_t /*row_begin*/,
                                   index_t /*row_end*/, index_t /*col_begin*/,
                                   index_t /*col_end*/, AccessKind /*kind*/,
                                   const AccessSite& /*site*/)
{
}

constexpr int current_tid() { return -1; }
constexpr std::uint64_t race_count() { return 0; }

constexpr void test_sever_edge(Edge /*edge*/) {}
constexpr void test_restore_edges() {}

constexpr bool enabled() noexcept { return false; }

#endif  // CAKE_RACECHECK_ENABLED

}  // namespace racecheck
}  // namespace cake
