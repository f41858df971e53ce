// Static numerics layer: the per-plan forward error bound arithmetic
// (core/fperror.hpp), the IR numerics verifier (analysis/numerics.hpp)
// with its mutation gate, and — the load-bearing part — an empirical
// accuracy harness proving that the MEASURED relative error of real
// multiplies never exceeds the STATIC bound, across kernels, shapes,
// schedules and executors, for both precisions and the quantized path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "analysis/numerics.hpp"
#include "analysis/schedir.hpp"
#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "core/fperror.hpp"
#include "core/quant.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

// --- Bound arithmetic (core/fperror.hpp) --------------------------------

TEST(FpError, GammaNBasics)
{
    EXPECT_EQ(gamma_n(0, 0x1p-24), 0.0);
    EXPECT_EQ(gamma_n(100, 0.0), 0.0);
    // Small n: gamma_n ~= n*u, strictly monotone in n.
    const double g10 = gamma_n(10, 0x1p-24);
    const double g20 = gamma_n(20, 0x1p-24);
    EXPECT_NEAR(g10, 10 * 0x1p-24, 1e-12);
    EXPECT_GT(g20, g10);
    // n*u >= 1: the bound honestly blows up instead of going negative.
    EXPECT_TRUE(std::isinf(gamma_n(1 << 25, 0x1p-24)));
}

TEST(FpError, DtypeTableAndLookup)
{
    EXPECT_EQ(find_dtype("f32"), &dtype_f32());
    EXPECT_EQ(find_dtype("f64"), &dtype_f64());
    EXPECT_EQ(find_dtype("i8"), &dtype_i8());
    EXPECT_EQ(find_dtype("q7"), nullptr);
    EXPECT_EQ(dtype_for_elem_bytes(4), &dtype_f32());
    EXPECT_EQ(dtype_for_elem_bytes(8), &dtype_f64());
    EXPECT_EQ(dtype_for_elem_bytes(1), &dtype_i8());
    EXPECT_EQ(dtype_for_elem_bytes(3), nullptr);
    // Narrow-storage formats accumulate in f32: storage u > accumulator u.
    EXPECT_GT(dtype_f16().storage_u, dtype_f16().acc_u);
    EXPECT_GT(dtype_bf16().storage_u, dtype_bf16().acc_u);
    EXPECT_EQ(dtype_f16().acc_u, dtype_f32().acc_u);
}

TEST(FpError, MoreSegmentsMeanStrictlyWorseBound)
{
    const AccumChain one{1024, 1, 0};
    const AccumChain four{1024, 4, 3};
    const double b1 = bound_for_chain(one, dtype_f32()).rel_bound;
    const double b4 = bound_for_chain(four, dtype_f32()).rel_bound;
    EXPECT_GT(b1, 0.0);
    EXPECT_GT(b4, b1);
    // f64 bound for the same chain is ~2^29 x tighter.
    EXPECT_LT(bound_for_chain(one, dtype_f64()).rel_bound, b1 * 1e-8);
    // Narrow storage dominates at shallow K: f16 conversion error alone
    // exceeds the whole f32 chain bound.
    EXPECT_GT(bound_for_chain(one, dtype_f16()).rel_bound, b1);
}

TEST(FpError, ScheduleSegmentsDriveThePlanBound)
{
    // A 2 x 3 x 4 CB grid: K-first schedules finish each column in one
    // run; N-innermost revisits every column once per K block.
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    const CbBlockParams params =
        compute_cb_block(machine, machine.cores, 6, 16, topts);
    const GemmShape shape{2 * params.m_blk, 3 * params.n_blk,
                          4 * params.k_blk};
    const auto serp = plan_error_bound(shape, params,
                                       ScheduleKind::kKFirstSerpentine,
                                       dtype_f32());
    const auto noflip = plan_error_bound(shape, params,
                                         ScheduleKind::kKFirstNoFlip,
                                         dtype_f32());
    const auto ninner = plan_error_bound(shape, params,
                                         ScheduleKind::kNInnermost,
                                         dtype_f32());
    EXPECT_EQ(serp.chain.segments, 1);
    EXPECT_EQ(noflip.chain.segments, 1);
    EXPECT_EQ(ninner.chain.segments, 4);
    EXPECT_EQ(serp.rel_bound, noflip.rel_bound);
    EXPECT_GT(ninner.rel_bound, serp.rel_bound);
    // beta != 0 adds exactly one join-add to the chain.
    const auto beta = plan_error_bound(shape, params,
                                       ScheduleKind::kKFirstSerpentine,
                                       dtype_f32(), /*beta_nonzero=*/true);
    EXPECT_GT(beta.rel_bound, serp.rel_bound);
}

TEST(FpError, GotoBoundCountsKcPasses)
{
    const GemmShape shape{64, 64, 1000};
    const auto one = goto_error_bound(shape, 1000, dtype_f32());
    const auto four = goto_error_bound(shape, 250, dtype_f32());
    EXPECT_EQ(one.chain.segments, 1);
    EXPECT_EQ(four.chain.segments, 4);
    EXPECT_GT(four.rel_bound, one.rel_bound);
}

TEST(FpError, GotoBoundIsTheGotoPlanBound)
{
    // goto_error_bound forwards to plan_error_bound of the GOTO plan: the
    // same chain and bound for every Table-2 machine, shape, precision and
    // beta, edge remainders in M, N and K included.
    for (const MachineSpec& machine : table2_machines()) {
        const CbBlockParams params =
            goto_plan_params(machine, machine.cores, 6, 16);
        for (const GemmShape& shape :
             {GemmShape{2000, 2000, 2000}, GemmShape{8000, 256, 2048},
              GemmShape{3000, 3000, 96}, GemmShape{700, 200, 400},
              GemmShape{64, 64, 1000}}) {
            for (const DtypeDesc* dtype : {&dtype_f32(), &dtype_f64()}) {
                for (const bool beta : {false, true}) {
                    const PlanErrorBound g =
                        goto_error_bound(shape, params.kc, *dtype, beta);
                    const PlanErrorBound p = plan_error_bound(
                        shape, params, ScheduleKind::kGoto, *dtype, beta);
                    EXPECT_EQ(g.chain.segments, p.chain.segments)
                        << machine.name;
                    EXPECT_EQ(g.chain.segments,
                              (shape.k + params.kc - 1) / params.kc);
                    EXPECT_EQ(g.rel_bound, p.rel_bound) << machine.name;
                }
            }
        }
    }
}

TEST(FpError, Int8StaticAccumulatorRange)
{
    // 127 * 127 per product; i32 holds ceil short of 2^31 / 16129 terms.
    EXPECT_EQ(int8_safe_k(), std::numeric_limits<std::int32_t>::max()
                                 / (127 * 127));
    EXPECT_EQ(int8_acc_range(0), 0.0);
    EXPECT_EQ(int8_acc_range(10), 10.0 * 127 * 127);
    const AccumChain safe{int8_safe_k(), 1, 0};
    const AccumChain unsafe{int8_safe_k() + 1, 1, 0};
    EXPECT_TRUE(bound_for_chain(safe, dtype_i8()).i32_safe);
    EXPECT_FALSE(bound_for_chain(unsafe, dtype_i8()).i32_safe);
    // Integer accumulation itself is exact: no rounding term.
    EXPECT_EQ(bound_for_chain(safe, dtype_i8()).rel_bound, 0.0);
}

// --- Empirical harness: measured error <= static bound ------------------

/// Max over C of |measured - oracle| / (sum_k |a| |b|), the per-element
/// relative error the Higham bound speaks about. Oracle and denominator
/// accumulate in OT (double for f32 inputs, long double for f64).
template <typename T, typename OT>
double max_rel_error(const T* a, const T* b, const T* c, const GemmShape& s)
{
    double worst = 0.0;
    for (index_t i = 0; i < s.m; ++i) {
        for (index_t j = 0; j < s.n; ++j) {
            OT acc = 0, denom = 0;
            for (index_t p = 0; p < s.k; ++p) {
                const OT av = a[static_cast<std::size_t>(i * s.k + p)];
                const OT bv = b[static_cast<std::size_t>(p * s.n + j)];
                acc += av * bv;
                denom += std::abs(av) * std::abs(bv);
            }
            if (denom == 0) continue;
            const OT err =
                std::abs(static_cast<OT>(
                             c[static_cast<std::size_t>(i * s.n + j)])
                         - acc);
            worst = std::max(worst, static_cast<double>(err / denom));
        }
    }
    return worst;
}

template <typename T>
struct OracleOf;
template <>
struct OracleOf<float> {
    using type = double;
};
template <>
struct OracleOf<double> {
    using type = long double;
};

/// Run one real CAKE multiply and assert its measured error against the
/// static bound of the EXACT plan the driver executed (stats().params).
template <typename T>
void check_cake_accuracy(const GemmShape& shape, ScheduleKind kind,
                         CakeExec exec, std::optional<index_t> mc,
                         std::optional<index_t> kc, std::uint32_t seed)
{
    CakeOptions opts;
    opts.schedule = kind;
    opts.exec = exec;
    opts.mc = mc;
    opts.kc = kc;
    CakeGemmT<T> gemm(test_pool(), opts);

    Rng rng(seed);
    AlignedBuffer<T> a(static_cast<std::size_t>(shape.m * shape.k));
    AlignedBuffer<T> b(static_cast<std::size_t>(shape.k * shape.n));
    AlignedBuffer<T> c(static_cast<std::size_t>(shape.m * shape.n), true);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<T>(rng.next_float(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<T>(rng.next_float(-1, 1));

    gemm.multiply(a.data(), shape.k, b.data(), shape.n, c.data(), shape.n,
                  shape.m, shape.n, shape.k);

    const DtypeDesc& dtype = sizeof(T) == 8 ? dtype_f64() : dtype_f32();
    const PlanErrorBound bound =
        plan_error_bound(shape, gemm.stats().params, kind, dtype);
    const double measured = max_rel_error<T, typename OracleOf<T>::type>(
        a.data(), b.data(), c.data(), shape);

    EXPECT_LE(measured, bound.rel_bound)
        << "schedule=" << schedule_kind_name(kind)
        << " exec=" << (gemm.stats().pipelined ? "pipelined" : "serial")
        << " shape=" << shape.m << "x" << shape.n << "x" << shape.k;
    EXPECT_GT(bound.rel_bound, 0.0);
}

TEST(NumericsHarness, MeasuredErrorWithinStaticBoundF32)
{
    const index_t mr = best_microkernel().mr;
    for (const ScheduleKind kind : {ScheduleKind::kKFirstSerpentine,
                                    ScheduleKind::kKFirstNoFlip,
                                    ScheduleKind::kNInnermost}) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            // Forced tiny blocking: multi-block grid (kb = 4, several
            // columns) so spills and join-adds actually happen.
            check_cake_accuracy<float>({96, 80, 128}, kind, exec, mr * 2, 32,
                                       11);
            // Solver-default blocking on a single-block grid.
            check_cake_accuracy<float>({64, 48, 72}, kind, exec,
                                       std::nullopt, std::nullopt, 12);
        }
    }
}

TEST(NumericsHarness, MeasuredErrorWithinStaticBoundF64)
{
    const index_t mr = best_microkernel_of<double>().mr;
    for (const ScheduleKind kind : {ScheduleKind::kKFirstSerpentine,
                                    ScheduleKind::kNInnermost}) {
        for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
            check_cake_accuracy<double>({80, 64, 160}, kind, exec, mr * 2,
                                        40, 13);
        }
    }
}

template <typename T>
void check_goto_accuracy(const GemmShape& shape, std::uint32_t seed)
{
    GotoGemmT<T> gemm(test_pool(), {});
    Rng rng(seed);
    AlignedBuffer<T> a(static_cast<std::size_t>(shape.m * shape.k));
    AlignedBuffer<T> b(static_cast<std::size_t>(shape.k * shape.n));
    AlignedBuffer<T> c(static_cast<std::size_t>(shape.m * shape.n), true);
    for (std::size_t i = 0; i < a.size(); ++i)
        a[i] = static_cast<T>(rng.next_float(-1, 1));
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = static_cast<T>(rng.next_float(-1, 1));

    gemm.multiply(a.data(), shape.k, b.data(), shape.n, c.data(), shape.n,
                  shape.m, shape.n, shape.k);

    const DtypeDesc& dtype = sizeof(T) == 8 ? dtype_f64() : dtype_f32();
    const PlanErrorBound bound =
        goto_error_bound(shape, gemm.stats().kc, dtype);
    const double measured = max_rel_error<T, typename OracleOf<T>::type>(
        a.data(), b.data(), c.data(), shape);
    EXPECT_LE(measured, bound.rel_bound) << "goto kc=" << gemm.stats().kc;
}

TEST(NumericsHarness, MeasuredErrorWithinStaticBoundGoto)
{
    check_goto_accuracy<float>({96, 80, 128}, 21);
    check_goto_accuracy<double>({80, 64, 160}, 22);
}

TEST(NumericsHarness, QuantizedErrorWithinRequantBound)
{
    // End-to-end quantized multiply vs the real product: the measured
    // absolute error obeys the static requantization bound built from the
    // actual QuantParams the quantizers chose.
    const GemmShape shape{48, 40, 64};
    Rng rng(31);
    Matrix a(shape.m, shape.k), b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);

    std::vector<std::uint8_t> aq(static_cast<std::size_t>(shape.m * shape.k));
    std::vector<std::int8_t> bq(static_cast<std::size_t>(shape.k * shape.n));
    const QuantParams qa =
        quantize_unsigned(a.data(), shape.m * shape.k, aq.data());
    const QuantParams qb =
        quantize_signed(b.data(), shape.k * shape.n, bq.data());

    const Matrix got = cake_qgemm(a, b, test_pool());
    const double abs_bound = int8_requant_abs_bound(shape.k, qa, qb);
    EXPECT_GT(abs_bound, 0.0);
    double worst = 0.0;
    for (index_t i = 0; i < shape.m; ++i) {
        for (index_t j = 0; j < shape.n; ++j) {
            double acc = 0;
            for (index_t p = 0; p < shape.k; ++p)
                acc += static_cast<double>(a.at(i, p))
                    * static_cast<double>(b.at(p, j));
            worst = std::max(
                worst, std::abs(static_cast<double>(got.at(i, j)) - acc));
        }
    }
    EXPECT_LE(worst, abs_bound);
}

// --- int8 edge cases against the static accumulator-range bound ---------

TEST(Int8Edges, SaturatedOperandsHitTheRangeBoundExactly)
{
    // A all 127, B all -127/+127 alternating by column: every accumulator
    // lands exactly on +-k * 127^2 — the static range bound is achieved,
    // not just approached, and i32 arithmetic stays exact.
    const index_t m = 12, n = 18, k = 96;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k), 127);
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < n; ++j)
            b[static_cast<std::size_t>(p * n + j)] =
                (j % 2 == 0) ? std::int8_t{127} : std::int8_t{-127};
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);

    CakeGemmInt8 gemm(test_pool());
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);

    const double range = int8_acc_range(k);
    const std::int32_t expect = static_cast<std::int32_t>(k) * 127 * 127;
    EXPECT_EQ(static_cast<double>(expect), range);
    ASSERT_LE(range, static_cast<double>(
                         std::numeric_limits<std::int32_t>::max()));
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            const std::int32_t got = c[static_cast<std::size_t>(i * n + j)];
            EXPECT_EQ(got, (j % 2 == 0) ? expect : -expect);
            EXPECT_LE(std::abs(static_cast<double>(got)), range);
        }
    }
}

TEST(Int8Edges, ZeroPointExtremesStayWithinRequantBound)
{
    // All-negative activations push the affine zero-point to its extreme;
    // the zero-point correction plus requant error must still obey the
    // static bound computed from the chosen params.
    const index_t m = 8, n = 16, k = 32;
    Rng rng(47);
    Matrix a(m, k), b(k, n);
    a.fill_random(rng, -8.0f, -4.0f);  // strictly negative activations
    b.fill_random(rng, -2.0f, 2.0f);

    std::vector<std::uint8_t> aq(static_cast<std::size_t>(m * k));
    const QuantParams qa = quantize_unsigned(a.data(), m * k, aq.data());
    std::vector<std::int8_t> bq(static_cast<std::size_t>(k * n));
    const QuantParams qb = quantize_signed(b.data(), k * n, bq.data());
    EXPECT_GT(qa.zero_point, 0);  // the extreme actually happened
    EXPECT_EQ(qb.zero_point, 0);  // weights stay symmetric

    const Matrix got = cake_qgemm(a, b, test_pool());
    const double abs_bound = int8_requant_abs_bound(k, qa, qb);
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            double acc = 0;
            for (index_t p = 0; p < k; ++p)
                acc += static_cast<double>(a.at(i, p))
                    * static_cast<double>(b.at(p, j));
            EXPECT_LE(std::abs(static_cast<double>(got.at(i, j)) - acc),
                      abs_bound)
                << "i=" << i << " j=" << j;
        }
    }
}

TEST(Int8Edges, EmptyKIsExactZero)
{
    // k = 0: no products at all. The static range bound collapses to 0
    // and the driver must write exact zeros (beta = 0), not garbage.
    const index_t m = 6, n = 10;
    std::vector<std::uint8_t> a;   // m x 0
    std::vector<std::int8_t> b;    // 0 x n
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 1234);

    CakeGemmInt8 gemm(test_pool());
    gemm.multiply(a.data(), 0, b.data(), n, c.data(), n, m, n, 0);

    EXPECT_EQ(int8_acc_range(0), 0.0);
    EXPECT_EQ(int8_requant_abs_bound(0, {}, {}), 0.0);
    for (const std::int32_t v : c) EXPECT_EQ(v, 0);
}

// --- IR verifier (analysis/numerics.hpp) --------------------------------

schedir::ScheduleIR small_ir(schedir::Exec exec,
                             ScheduleKind kind = ScheduleKind::kKFirstSerpentine)
{
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    topts.mc = 48;
    const CbBlockParams params =
        compute_cb_block(machine, machine.cores, 6, 16, topts);
    return schedir::extract_cake_ir({1000, 1000, 200}, params, kind, exec);
}

/// The same shape under the GOTO plan: GOTO's blocking, the kGoto order,
/// overlap off.
schedir::ScheduleIR goto_small_ir()
{
    const MachineSpec machine = intel_i9_10900k();
    return schedir::extract_cake_ir(
        {1000, 1000, 200}, goto_plan_params(machine, machine.cores, 6, 16),
        ScheduleKind::kGoto, schedir::Exec::kSerial);
}

TEST(NumericsVerifier, CleanIrVerifiesCleanOnEveryExecutor)
{
    for (const auto& ir :
         {small_ir(schedir::Exec::kSerial), small_ir(schedir::Exec::kPipelined),
          goto_small_ir()}) {
        const auto report = numerics::verify_numerics(ir, dtype_f32());
        EXPECT_TRUE(report.ok()) << report.codes();
        EXPECT_EQ(report.ir_fma_depth, 200);
        EXPECT_GT(report.bound.rel_bound, 0.0);
        // The dtype-resolving overload agrees.
        EXPECT_TRUE(numerics::verify_numerics(ir).ok());
    }
}

TEST(NumericsVerifier, BoundMatchesCorePlanBound)
{
    // The IR-derived bound and the release-side plan bound are the same
    // number for the same plan — one derivation, two entry points.
    const auto ir = small_ir(schedir::Exec::kPipelined);
    const auto report = numerics::verify_numerics(ir, dtype_f32());
    const PlanErrorBound core =
        plan_error_bound(ir.shape, ir.params, ir.schedule, dtype_f32());
    EXPECT_EQ(report.bound.rel_bound, core.rel_bound);
    EXPECT_EQ(report.bound.chain.segments, core.chain.segments);
}

TEST(NumericsVerifier, EveryMutationCaughtWithItsCode)
{
    using numerics::NumMutation;
    const struct {
        NumMutation m;
        const char* code;
    } cases[] = {
        {NumMutation::kDeepenAccum, "NUM_CHAIN"},
        {NumMutation::kDropTurnover, "NUM_TURNOVER"},
        {NumMutation::kLyingDtype, "NUM_DTYPE"},
    };
    for (const auto& c : cases) {
        for (const schedir::Exec exec :
             {schedir::Exec::kSerial, schedir::Exec::kPipelined}) {
            auto ir = small_ir(exec);
            const std::string expected =
                numerics::apply_numerics_mutation(ir, c.m);
            EXPECT_EQ(expected, c.code);
            const auto report = numerics::verify_numerics(ir, dtype_f32());
            EXPECT_FALSE(report.ok());
            EXPECT_TRUE(report.has(expected))
                << numerics::num_mutation_name(c.m) << " on "
                << schedir::exec_name(exec) << " reported ["
                << report.codes() << "]";
        }
    }
    // The GOTO plan retires its columns once per kc pass, so all three
    // apply.
    auto g1 = goto_small_ir();
    EXPECT_EQ(numerics::apply_numerics_mutation(g1, NumMutation::kDeepenAccum),
              "NUM_CHAIN");
    EXPECT_TRUE(numerics::verify_numerics(g1, dtype_f32()).has("NUM_CHAIN"));
    auto g2 = goto_small_ir();
    EXPECT_EQ(numerics::apply_numerics_mutation(g2, NumMutation::kLyingDtype),
              "NUM_DTYPE");
    EXPECT_TRUE(numerics::verify_numerics(g2, dtype_f32()).has("NUM_DTYPE"));
    auto g3 = goto_small_ir();
    EXPECT_EQ(numerics::apply_numerics_mutation(g3, NumMutation::kDropTurnover),
              "NUM_TURNOVER");
    EXPECT_TRUE(numerics::verify_numerics(g3, dtype_f32()).has("NUM_TURNOVER"));
}

TEST(NumericsVerifier, NInnermostIrCarriesItsSegments)
{
    const auto ir =
        small_ir(schedir::Exec::kSerial, ScheduleKind::kNInnermost);
    const auto report = numerics::verify_numerics(ir, dtype_f32());
    EXPECT_TRUE(report.ok()) << report.codes();
    EXPECT_GT(report.ir_segments, 1);
    const auto serp = numerics::verify_numerics(
        small_ir(schedir::Exec::kSerial), dtype_f32());
    EXPECT_GT(report.bound.rel_bound, serp.bound.rel_bound);
}

TEST(NumericsVerifier, Int8OverflowRiskFlagged)
{
    // A (deliberately fictitious) int8 plan deeper than the provable i32
    // range must trip NUM_I8_RANGE; a safe-depth one must not.
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    topts.elem_bytes = 1;
    const CbBlockParams params =
        compute_cb_block(machine, machine.cores, 6, 16, topts);

    const GemmShape safe{64, 64, 1024};
    const auto ok_ir = schedir::extract_cake_ir(
        safe, params, ScheduleKind::kKFirstSerpentine,
        schedir::Exec::kSerial);
    const auto ok_report = numerics::verify_numerics(ok_ir, dtype_i8());
    EXPECT_TRUE(ok_report.ok()) << ok_report.codes();
    EXPECT_TRUE(ok_report.bound.i32_safe);

    const GemmShape deep{16, 16, int8_safe_k() + params.k_blk};
    const auto deep_ir = schedir::extract_cake_ir(
        deep, params, ScheduleKind::kKFirstSerpentine,
        schedir::Exec::kSerial);
    const auto deep_report = numerics::verify_numerics(deep_ir, dtype_i8());
    EXPECT_TRUE(deep_report.has("NUM_I8_RANGE")) << deep_report.codes();
    EXPECT_FALSE(deep_report.bound.i32_safe);
}

}  // namespace
}  // namespace cake
