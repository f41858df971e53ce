// Static floating-point / integer error model of a CAKE plan.
//
// The paper's central claim — partial C results accumulate in cache across
// the K dimension — means the numerical behaviour of a result is fully
// determined by the *plan*: how deep each FMA run is, how often a partial
// column spills and rejoins (schedule turnovers), what the element width
// is, and whether beta folds old C in. This header derives Higham-style
// worst-case forward error bounds from exactly that structure:
//
//   * floats: a dot product of n sequential rounding operations in unit
//     roundoff u satisfies |chat - c| <= gamma_n * sum_i |a_i||b_i| with
//     gamma_n = n*u / (1 - n*u) (Higham, ASNA 2e, §3.1). Per C element the
//     plan contributes k FMAs plus one join-add per partial-C spill (the
//     flush read-modify-write that reunites a spilled partial with its
//     column) plus one for beta != 0; pack-time conversions from a wider
//     source add a 2*u_storage perturbation on each product.
//   * int8 (u8 x s8 -> s32): accumulation is exact, so the analysis bounds
//     the i32 accumulator range (the int8 A contract, enforced by the A
//     packer's [I8_A_RANGE] check, keeps A <= 127, so
//     |acc| <= k * 127 * 127) and the requantization error a dequantized
//     result inherits from the QuantParams scales.
//
// This lives in src/core — NOT src/analysis — because release builds need
// it: the autotuner (src/tune) refuses candidates whose bound exceeds the
// analytic default's, and tuned cache entries carry their bound. The
// IR-walking verifier that proves an extracted schedule actually realises
// these bounds is analysis-only (src/analysis/numerics.hpp).
#pragma once

#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/quant.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"

namespace cake {

/// Everything the error model needs to know about an element type. The
/// storage and accumulator roundoffs differ for the narrow float formats
/// (f16/bf16 store narrow but accumulate in f32 — ROADMAP item 2); for
/// the integer path both are 0 (accumulation is exact until it overflows,
/// which the range bound below guards).
struct DtypeDesc {
    const char* name = "f32";  ///< "f32" | "f64" | "f16" | "bf16" | "i8"
    index_t elem_bytes = 4;    ///< storage width of one element
    double storage_u = 0;      ///< unit roundoff of the stored format
    double acc_u = 0;          ///< unit roundoff of the accumulator
    bool is_integer = false;   ///< int8 path: exact accumulation, range-bound
};

const DtypeDesc& dtype_f32();
const DtypeDesc& dtype_f64();
const DtypeDesc& dtype_f16();   ///< IEEE binary16 storage, f32 accumulate
const DtypeDesc& dtype_bf16();  ///< bfloat16 storage, f32 accumulate
const DtypeDesc& dtype_i8();    ///< u8 x s8 -> s32, requantized

/// Descriptor by name; nullptr for an unknown dtype.
const DtypeDesc* find_dtype(std::string_view name);

/// Canonical descriptor for an element width (1 -> i8, 2 -> f16, 4 -> f32,
/// 8 -> f64); nullptr for unsupported widths. Two-byte storage is
/// ambiguous (f16 vs bf16) — callers that mean bf16 must say so by name.
const DtypeDesc* dtype_for_elem_bytes(index_t elem_bytes);

/// gamma_n = n*u / (1 - n*u); HUGE_VAL once n*u >= 1 (the bound is
/// vacuous — no digits survive).
double gamma_n(index_t n, double u);

/// The worst-case per-C-element accumulation structure of a plan.
struct AccumChain {
    index_t fma_depth = 0;   ///< sequential FMAs (= K: one per input pair)
    index_t segments = 1;    ///< in-cache accumulation runs (1 = no spill)
    index_t extra_adds = 0;  ///< spill join-adds (segments - 1) + beta add

    /// Sequential rounding operations the bound charges.
    [[nodiscard]] index_t rounding_ops() const
    {
        return fma_depth + extra_adds;
    }
};

/// The derived bound. For floats, `rel_bound` promises
///   |Chat[i][j] - C[i][j]| <= rel_bound * sum_k |A[i][k]| |B[k][j]|
/// for every element, every schedule interleaving. For the integer path,
/// `acc_range` bounds |i32 accumulator| and `i32_safe` says it fits.
struct PlanErrorBound {
    AccumChain chain;
    double gamma = 0;      ///< gamma_{rounding_ops}(acc_u)
    double rel_bound = 0;  ///< gamma plus pack-conversion perturbation
    double acc_range = 0;  ///< int path: worst-case |accumulator|
    bool i32_safe = true;  ///< acc_range fits an int32 accumulator
};

/// Worst per-(m, n) column count of accumulation runs in a block order of
/// schedule `kind`: a run goes on while each step carries C over
/// (carried_surfaces). 1 for any K-first schedule, ceil(K / kc) for
/// N-innermost and GOTO (each revisit spills the partial column and
/// rejoins later).
index_t max_schedule_segments(ScheduleKind kind,
                              const std::vector<BlockCoord>& order);

/// Bound for an explicit chain — the shared kernel of the plan-level and
/// IR-level (src/analysis/numerics) derivations.
PlanErrorBound bound_for_chain(const AccumChain& chain,
                               const DtypeDesc& dtype);

/// Bound of a CAKE plan: chain depth K, segments from the block order the
/// schedule kind produces for this shape/geometry, +1 join when beta != 0.
PlanErrorBound plan_error_bound(const GemmShape& shape,
                                const CbBlockParams& params,
                                ScheduleKind schedule, const DtypeDesc& dtype,
                                bool beta_nonzero = false);

/// Bound of a GOTO plan (ScheduleKind::kGoto): C streams to user memory
/// every (jc, pc) pass, so segments = ceil(K / kc).
PlanErrorBound goto_error_bound(const GemmShape& shape, index_t kc,
                                const DtypeDesc& dtype,
                                bool accumulate = false);

/// Largest K for which the u8[0,127] x s8[-127,127] accumulator provably
/// fits an int32: k * 127 * 127 <= INT32_MAX.
index_t int8_safe_k();

/// Worst-case |i32 accumulator| after a depth-k u8[0,127] x s8[-127,127]
/// dot product.
double int8_acc_range(index_t k);

/// Absolute error bound of the dequantized result vs the real-valued
/// product: per-element quantization noise (scale/2 each side) propagated
/// through a depth-k dot product, plus the final f32 rounding of the
/// dequantized value.
double int8_requant_abs_bound(index_t k, const QuantParams& a_params,
                              const QuantParams& b_params);

}  // namespace cake
