// Static reuse-distance analyzer: proves, from the schedule IR alone,
// that a block schedule's DRAM traffic is exactly what its transition
// structure (surface sharing, §2.2) implies — for every ScheduleKind,
// including the space-filling-curve orders (Hilbert / Morton) whose
// locality is otherwise only an empirical claim.
//
// The byte-level verifier (verify.hpp) proves the IR agrees with the
// paper's Eq.-2 traffic model; this pass goes one level deeper and proves
// the IR obeys the *cache-theoretic law* that generates that model: a
// surface is refetched iff its typed LRU stack distance since last use is
// nonzero (A and B), or it was retired to memory earlier (partial C).
// Three obligations, each with a coded diagnostic:
//
//   LOC_SURFACE  per-transition byte law — the bytes the IR's pack/stream/
//                reload ops fetch at each schedule step must equal the
//                closed-form unshared-surface bytes of that transition
//                (edge blocks clipped), step by step, not just in total.
//   LOC_STACK    fetch-event law — the IR's fetch events (distinct packed-A
//                and packed-B generations, B stream ops, partial-C reload
//                ops) must occur exactly at the steps where the typed
//                stack-distance law demands a fetch, and nowhere else.
//   LOC_TRAFFIC  summed closed-form traffic must equal io_totals(ir)
//                byte-exactly in all five Eq.-2 components. io_totals is
//                in turn pinned to the src/memsim address stream by
//                cross_check_memsim, so a clean report chains the
//                analyzer's prediction to simulated DRAM traffic.
//
// The report also carries descriptive locality evidence — a byte-weighted
// stack-distance histogram over the combined surface reference stream and
// per-cache-level hit/miss/cold counts (cache/topology.hpp) — consumed by
// bench_schedule_traffic and the cake_verify --locality report.
//
// Like the rest of cake::schedir this is analysis-only: compiled into the
// cake_schedir library (tests/tools configurations only) and the release
// nm gate proves no cake::locality symbol reaches release objects. The
// release-side schedule decision rule (model::recommend_schedule) reads
// build_block_plan; this analyzer's closed form (schedir::io_model, shared
// with IR_IO_MODEL) is derived independently of that plan, so a clean
// report proves the plan honest.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/schedir.hpp"
#include "cache/topology.hpp"
#include "common/issue.hpp"

namespace cake {
namespace locality {

/// One schedule transition (step i-1 -> i) as the closed form sees it.
struct Transition {
    index_t step = 0;                  ///< index into ir.order
    std::uint64_t shared_bytes = 0;    ///< surface bytes carried over
    std::uint64_t predicted_fetch = 0; ///< closed-form A+B+reload fetch bytes
    std::uint64_t ir_fetch = 0;        ///< bytes the IR's ops fetch here
};

/// Byte-weighted LRU stack-distance histogram of the combined surface
/// reference stream (A, B, C surfaces touched in that order each step).
/// Distances are exclusive: bytes of *other* surfaces touched since the
/// last reference.
struct StackHistogram {
    std::uint64_t immediate = 0;  ///< distance-0 reuses (carried surfaces)
    std::uint64_t cold = 0;       ///< first touches
    /// bucket b counts reuses with 2^b <= distance < 2^(b+1) bytes.
    std::array<std::uint64_t, 64> pow2{};
    std::uint64_t max_distance = 0;
};

/// Hit/miss/cold classification of the same stream against one cache
/// level: a reuse hits iff distance + surface bytes fit the capacity.
struct LevelStats {
    std::string name;  ///< "L1", "L2", ...
    std::uint64_t capacity_bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t cold = 0;
};

/// Issue codes: LOC_SURFACE | LOC_STACK | LOC_TRAFFIC; each message names
/// the step, surface and byte counts.
struct LocalityReport : IssueList {
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    index_t steps = 0;                ///< blocks in ir.order
    index_t shared_transitions = 0;   ///< transitions sharing >= 1 surface
    std::uint64_t shared_bytes = 0;   ///< total carried-over surface bytes
    schedir::IoTotals predicted;      ///< closed-form DRAM traffic
    StackHistogram hist;
    std::vector<LevelStats> levels;      ///< one per analysed cache level
    std::vector<Transition> transitions; ///< per-step rows (steps entries)
};

/// Analyse an IR (serial or pipelined, any ScheduleKind, GOTO's included)
/// against the given cache hierarchy. The reuse law is defined over the
/// CB-block order (ir.order) and the kind's carry-over rule.
LocalityReport analyze_locality(const schedir::ScheduleIR& ir,
                                const CacheHierarchy& caches);

/// Convenience overload: analyse against default_caches().
LocalityReport analyze_locality(const schedir::ScheduleIR& ir);

/// Deterministic locality corruptions, each caught by the named code.
enum class LocMutation {
    kTwistOrder,    ///< swap blocks across a column boundary -> LOC_SURFACE
    kSkewFetch,     ///< move fetch bytes between two steps -> LOC_SURFACE
    kPhantomFetch,  ///< extra zero-byte B fetch event -> LOC_STACK
    kInflateFlush,  ///< a retiring compute over-writes back -> LOC_TRAFFIC
};
const char* loc_mutation_name(LocMutation m);
constexpr int kLocMutationCount = 4;

/// Corrupt `ir` in place; returns the diagnostic code analyze_locality
/// MUST now emit (and never emits for the clean IR). Throws cake::Error
/// when the IR has no site for the mutation (e.g. kTwistOrder on a
/// single-column schedule).
std::string apply_locality_mutation(schedir::ScheduleIR& ir, LocMutation m);

}  // namespace locality
}  // namespace cake
