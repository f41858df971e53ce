#include "core/fperror.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>

namespace cake {

namespace {

// Unit roundoffs: u = 2^-(p) for a p-bit significand (including the
// implicit bit) under round-to-nearest.
constexpr double kUf64 = 0x1p-53;
constexpr double kUf32 = 0x1p-24;
constexpr double kUf16 = 0x1p-11;
constexpr double kUbf16 = 0x1p-8;

constexpr DtypeDesc kF32{"f32", 4, kUf32, kUf32, false};
constexpr DtypeDesc kF64{"f64", 8, kUf64, kUf64, false};
constexpr DtypeDesc kF16{"f16", 2, kUf16, kUf32, false};
constexpr DtypeDesc kBf16{"bf16", 2, kUbf16, kUf32, false};
constexpr DtypeDesc kI8{"i8", 1, 0.0, 0.0, true};

constexpr const DtypeDesc* kAll[] = {&kF32, &kF64, &kF16, &kBf16, &kI8};

// quantize_unsigned clamps A to [0, 127] and quantize_signed clamps B to
// [-127, 127], so one product never exceeds 127 * 127 = 16129.
constexpr index_t kInt8ProductMax = 127 * 127;

}  // namespace

const DtypeDesc& dtype_f32() { return kF32; }
const DtypeDesc& dtype_f64() { return kF64; }
const DtypeDesc& dtype_f16() { return kF16; }
const DtypeDesc& dtype_bf16() { return kBf16; }
const DtypeDesc& dtype_i8() { return kI8; }

const DtypeDesc* find_dtype(std::string_view name)
{
    for (const DtypeDesc* d : kAll) {
        if (name == d->name) return d;
    }
    return nullptr;
}

const DtypeDesc* dtype_for_elem_bytes(index_t elem_bytes)
{
    switch (elem_bytes) {
        case 1: return &kI8;
        case 2: return &kF16;
        case 4: return &kF32;
        case 8: return &kF64;
        default: return nullptr;
    }
}

double gamma_n(index_t n, double u)
{
    if (n <= 0 || u <= 0.0) return 0.0;
    const double nu = static_cast<double>(n) * u;
    if (nu >= 1.0) return HUGE_VAL;
    return nu / (1.0 - nu);
}

index_t max_schedule_segments(ScheduleKind kind,
                              const std::vector<BlockCoord>& order)
{
    // A segment is a run of consecutive steps that carry the column's
    // partial C over. Partial C stays in cache only within a run — every
    // run boundary is a spill + later join-add.
    std::map<std::pair<index_t, index_t>, index_t> runs;
    index_t worst = 1;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0 && carried_surfaces(kind, order[i - 1], order[i]).c) {
            continue;
        }
        const index_t r = ++runs[{order[i].m, order[i].n}];
        worst = std::max(worst, r);
    }
    return worst;
}

PlanErrorBound bound_for_chain(const AccumChain& chain, const DtypeDesc& dtype)
{
    PlanErrorBound b;
    b.chain = chain;
    if (dtype.is_integer) {
        // Exact accumulation: no rounding term; the hazard is range.
        b.acc_range = int8_acc_range(chain.fma_depth);
        b.i32_safe = chain.fma_depth <= int8_safe_k();
        return b;
    }
    b.gamma = gamma_n(chain.rounding_ops(), dtype.acc_u);
    // Narrow-storage formats convert both operands at pack time: each
    // product a_i * b_i is perturbed by (1 + d_a)(1 + d_b) with
    // |d| <= storage_u before any accumulator rounding applies.
    const double conv_u =
        dtype.storage_u > dtype.acc_u ? dtype.storage_u : 0.0;
    b.rel_bound = (1.0 + conv_u) * (1.0 + conv_u) * (1.0 + b.gamma) - 1.0;
    return b;
}

PlanErrorBound plan_error_bound(const GemmShape& shape,
                                const CbBlockParams& params,
                                ScheduleKind schedule, const DtypeDesc& dtype,
                                bool beta_nonzero)
{
    // The executor's block order; degenerate inputs (k = 0, or GOTO's
    // unset m and n extents) get its well-formed one-block order.
    const auto order = block_order(schedule, shape, params);
    AccumChain chain;
    chain.fma_depth = shape.k;
    chain.segments = max_schedule_segments(schedule, order);
    chain.extra_adds = (chain.segments - 1) + (beta_nonzero ? 1 : 0);
    return bound_for_chain(chain, dtype);
}

PlanErrorBound goto_error_bound(const GemmShape& shape, index_t kc,
                                const DtypeDesc& dtype, bool accumulate)
{
    // Only the K extent shapes GOTO's chain: one segment per kc pass.
    return plan_error_bound(shape, CbBlockParams{.k_blk = kc},
                            ScheduleKind::kGoto, dtype, accumulate);
}

index_t int8_safe_k()
{
    return std::numeric_limits<std::int32_t>::max() / kInt8ProductMax;
}

double int8_acc_range(index_t k)
{
    if (k <= 0) return 0.0;
    return static_cast<double>(k) * static_cast<double>(kInt8ProductMax);
}

double int8_requant_abs_bound(index_t k, const QuantParams& a_params,
                              const QuantParams& b_params)
{
    if (k <= 0) return 0.0;
    const double sa = std::abs(static_cast<double>(a_params.scale));
    const double sb = std::abs(static_cast<double>(b_params.scale));
    const double kd = static_cast<double>(k);
    // Each real a is reproduced as sa * (aq - za) within sa/2, each real b
    // as sb * bq within sb/2 (round-to-nearest, unsaturated range). Per
    // product: |da * b~| + |db * a~| + |da * db| with |a~| <= 127 sa,
    // |b~| <= 127 sb. Summed over k, plus the final f32 rounding of the
    // dequantized value (|result| <= k * sa * sb * 127^2).
    const double per_product = sa * sb * (127.0 / 2 + 127.0 / 2 + 0.25);
    const double final_round =
        kd * sa * sb * static_cast<double>(kInt8ProductMax) * 0x1p-24;
    return kd * per_product + final_round;
}

}  // namespace cake
