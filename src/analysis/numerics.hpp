// Static numerics verifier: an abstract-interpretation pass over the
// schedule IR that proves an extracted schedule realises the per-plan
// floating-point error bound (core/fperror.hpp) its dtype and geometry
// promise.
//
// The byte-level verifier (verify.hpp) proves WHERE data moves; this pass
// proves HOW MUCH rounding the moves imply. It walks every C column's
// accumulation chain as the IR records it — compute ops grouped by
// (m, n) column, their K coordinates, and the user-C generations (column
// visits) that delimit in-cache accumulation runs; a revisit's join is
// its first compute — and checks the
// realised structure against what the plan's shape, blocking and schedule
// order require:
//
//   NUM_DTYPE     the IR's element width disagrees with the dtype it is
//                 analysed as, or its own params record (a lying dtype
//                 would invalidate every width-dependent bound).
//   NUM_CHAIN     a C column's total FMA depth (sum of per-K-block run
//                 lengths over its distinct K coordinates) is not K:
//                 the chain was deepened or shortened, so the gamma_n
//                 term of the bound is wrong.
//   NUM_TURNOVER  the spill/turnover structure disagrees with the
//                 schedule: a column's visit count does not match its
//                 run count in the block order, one visit mixes two C
//                 columns, or a visit that accumulated is never retired
//                 by a closing compute.
//   NUM_I8_RANGE  integer path: the worst-case i32 accumulator range
//                 k * 127 * 127 does not provably fit an int32.
//
// Like the rest of cake::schedir this is analysis-only: it is compiled
// into the cake_schedir library (tests/tools configurations) and the
// release nm gate proves no cake::numerics symbol reaches release
// objects. The bound arithmetic itself lives in src/core/fperror.hpp so
// release builds (the autotuner's accuracy gate) share one derivation.
#pragma once

#include <string>
#include <vector>

#include "analysis/schedir.hpp"
#include "common/issue.hpp"
#include "core/fperror.hpp"

namespace cake {
namespace numerics {

/// Issue codes: NUM_DTYPE | NUM_CHAIN | NUM_TURNOVER | NUM_I8_RANGE.
struct NumericsReport : IssueList {
    /// The bound the plan promises (and, when ok(), provably realises).
    PlanErrorBound bound;
    index_t ir_fma_depth = 0;  ///< worst per-element FMA depth found in IR
    index_t ir_segments = 0;   ///< worst per-element accumulation segments
};

/// Verify `ir`'s accumulation structure against `dtype` and derive the
/// plan's error bound, for overlap off or on and every schedule kind.
NumericsReport verify_numerics(const schedir::ScheduleIR& ir,
                               const DtypeDesc& dtype);

/// Convenience overload: resolve the dtype from ir.elem_bytes (NUM_DTYPE
/// if the width maps to no known dtype).
NumericsReport verify_numerics(const schedir::ScheduleIR& ir);

/// Deterministic numerics corruptions, each caught by exactly one code.
enum class NumMutation {
    kDeepenAccum,   ///< extra out-of-grid accumulation -> NUM_CHAIN
    kDropTurnover,  ///< merge two column visits -> NUM_TURNOVER
    kLyingDtype,    ///< flip ir.elem_bytes, keep params -> NUM_DTYPE
};
const char* num_mutation_name(NumMutation m);
constexpr int kNumMutationCount = 3;

/// Corrupt `ir` in place; returns the diagnostic code verify_numerics
/// MUST now emit (and never emits for the clean IR). Throws cake::Error
/// when the IR has no site for the mutation (e.g. kDropTurnover on a
/// single-visit IR).
std::string apply_numerics_mutation(schedir::ScheduleIR& ir, NumMutation m);

}  // namespace numerics
}  // namespace cake
