// CAKE GEMM driver correctness: shape sweeps against a float64 oracle,
// accumulate semantics, leading-dimension handling, scheduling variants,
// worker-count variants, and stats invariants.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "ref/naive_gemm.hpp"
#include "test_names.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

/// Small-machine options so tests exercise many blocks without huge sizes.
CakeOptions tiny_block_options()
{
    CakeOptions options;
    options.mc = best_microkernel().mr * 3;
    return options;
}

using ShapeParam = std::tuple<index_t, index_t, index_t>;

class CakeShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(CakeShapeTest, MatchesOracle)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 73856093 ^ n * 19349663
                                       ^ k * 83492791));
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    // Small forced geometry => multiple CB blocks in every dimension.
    options.mc = best_microkernel().mr * 2;
    options.alpha = 1.0;
    CakeStats stats;
    const Matrix c = cake_gemm(a, b, test_pool(), options, &stats);

    const Matrix expected = oracle_gemm(a, b);
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(k))
        << "m=" << m << " n=" << n << " k=" << k
        << " blocks=" << stats.blocks_executed;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, CakeShapeTest,
    ::testing::Values(
        // Degenerate and tiny
        ShapeParam{1, 1, 1}, ShapeParam{1, 1, 64}, ShapeParam{1, 64, 1},
        ShapeParam{64, 1, 1}, ShapeParam{2, 3, 4},
        // Exact multiples of register tiles
        ShapeParam{12, 32, 24}, ShapeParam{48, 64, 48},
        // Awkward primes
        ShapeParam{13, 17, 19}, ShapeParam{97, 89, 83},
        // One dim large (skewed, §5.2.1)
        ShapeParam{256, 8, 8}, ShapeParam{8, 256, 8}, ShapeParam{8, 8, 256},
        // Mid-size square and rectangles
        ShapeParam{100, 100, 100}, ShapeParam{150, 75, 33},
        ShapeParam{75, 150, 201}, ShapeParam{201, 33, 150}),
    [](const auto& info) { return mnk_name(info.param); });

TEST(CakeGemm, AccumulateAddsToExistingC)
{
    Rng rng(9);
    Matrix a(40, 30);
    Matrix b(30, 50);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(40, 50);
    c.fill(2.0f);

    CakeOptions options = tiny_block_options();
    options.accumulate = true;
    cake_sgemm(a.data(), b.data(), c.data(), 40, 50, 30, test_pool(),
               options);

    Matrix expected = oracle_gemm(a, b);
    for (index_t i = 0; i < expected.rows(); ++i)
        for (index_t j = 0; j < expected.cols(); ++j)
            expected.at(i, j) += 2.0f;
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(30));
}

TEST(CakeGemm, OverwriteModeIgnoresGarbageInC)
{
    Rng rng(10);
    Matrix a(33, 21);
    Matrix b(21, 47);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(33, 47);
    c.fill(1e30f);  // pre-existing garbage must be overwritten

    cake_sgemm(a.data(), b.data(), c.data(), 33, 47, 21, test_pool(),
               tiny_block_options());
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), gemm_tolerance(21));
}

TEST(CakeGemm, LeadingDimensionsRespected)
{
    // Multiply sub-matrices embedded in larger allocations.
    Rng rng(11);
    Matrix abig(50, 60);
    Matrix bbig(60, 70);
    abig.fill_random(rng);
    bbig.fill_random(rng);
    const index_t m = 30, n = 40, k = 25;
    Matrix cbig(50, 70);
    cbig.fill(-5.0f);

    CakeGemm gemm(test_pool(), tiny_block_options());
    gemm.multiply(abig.data() + 2 * 60 + 3, 60, bbig.data() + 4 * 70 + 5, 70,
                  cbig.data() + 6 * 70 + 7, 70, m, n, k);

    // Oracle on the extracted sub-matrices.
    Matrix asub(m, k), bsub(k, n);
    for (index_t i = 0; i < m; ++i)
        for (index_t p = 0; p < k; ++p) asub.at(i, p) = abig.at(2 + i, 3 + p);
    for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < n; ++j) bsub.at(p, j) = bbig.at(4 + p, 5 + j);
    const Matrix expected = oracle_gemm(asub, bsub);
    double worst = 0;
    for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j)
            worst = std::max(worst,
                             std::abs(static_cast<double>(
                                          cbig.at(6 + i, 7 + j))
                                      - expected.at(i, j)));
    EXPECT_LE(worst, gemm_tolerance(k));
    // Region outside the target sub-matrix untouched.
    EXPECT_EQ(cbig.at(0, 0), -5.0f);
    EXPECT_EQ(cbig.at(49, 69), -5.0f);
    EXPECT_EQ(cbig.at(5, 7), -5.0f);
}

TEST(CakeGemm, AllWorkerCountsAgree)
{
    Rng rng(12);
    Matrix a(90, 80);
    Matrix b(80, 110);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);
    for (int p = 1; p <= 4; ++p) {
        CakeOptions options = tiny_block_options();
        options.p = p;
        CakeStats stats;
        const Matrix c = cake_gemm(a, b, test_pool(), options, &stats);
        EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(80)) << "p=" << p;
        EXPECT_EQ(stats.params.p, p);
    }
}

TEST(CakeGemm, AllSchedulesProduceSameResult)
{
    Rng rng(13);
    Matrix a(70, 60);
    Matrix b(60, 90);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);
    for (ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        CakeOptions options = tiny_block_options();
        options.mc = best_microkernel().mr;
        options.schedule = kind;
        const Matrix c = cake_gemm(a, b, test_pool(), options);
        EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(60))
            << schedule_kind_name(kind);
    }
}

TEST(CakeGemm, ZeroDimensionsHandled)
{
    Matrix c(4, 4);
    c.fill(3.0f);
    // k == 0: overwrite mode zeroes C, accumulate mode leaves it alone.
    CakeGemm gemm(test_pool());
    gemm.multiply(nullptr, 0, nullptr, 4, c.data(), 4, 4, 4, 0);
    EXPECT_EQ(max_abs_diff(c, Matrix(4, 4)), 0.0);

    Matrix c2(4, 4);
    c2.fill(3.0f);
    CakeOptions acc;
    acc.accumulate = true;
    CakeGemm gemm2(test_pool(), acc);
    gemm2.multiply(nullptr, 0, nullptr, 4, c2.data(), 4, 4, 4, 0);
    EXPECT_EQ(c2.at(0, 0), 3.0f);
}

TEST(CakeGemm, StatsInvariants)
{
    Rng rng(14);
    const index_t m = 96, n = 128, k = 72;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    options.alpha = 1.0;
    options.p = 2;
    CakeStats stats;
    cake_sgemm(a.data(), b.data(), Matrix(m, n).data(), m, n, k, test_pool(),
               options, &stats);

    EXPECT_EQ(stats.blocks_executed,
              stats.grid_mb * stats.grid_nb * stats.grid_kb);
    // K-first: every C surface flushed exactly once, no partial spills.
    EXPECT_EQ(stats.c_flushes, stats.grid_mb * stats.grid_nb);
    EXPECT_EQ(stats.c_partial_spills, 0);
    // Surface sharing means strictly fewer packs than blocks (grids > 1).
    EXPECT_LE(stats.a_packs, stats.blocks_executed);
    EXPECT_LE(stats.b_packs, stats.blocks_executed);
    EXPECT_GT(stats.a_packs, 0);
    // C write traffic is exactly the result matrix, written once.
    EXPECT_EQ(stats.dram_write_bytes,
              static_cast<std::uint64_t>(m) * n * sizeof(float));
    EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(CakeGemm, ReusedContextIsConsistent)
{
    Rng rng(15);
    CakeGemm gemm(test_pool(), tiny_block_options());
    // Grow-then-shrink exercises buffer reuse paths.
    for (index_t size : {32, 96, 48, 128, 16}) {
        Matrix a(size, size);
        Matrix b(size, size);
        a.fill_random(rng);
        b.fill_random(rng);
        Matrix c(size, size);
        gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size);
        EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), gemm_tolerance(size))
            << "size=" << size;
    }
}

// ---------------------------------------------------------------------------
// Pipelined executor: must be BIT-exact with the serial executor (identical
// per-sliver / per-band floating-point operation sequences, only claimed by
// different workers), and its precomputed counting stats must match the
// serial executor's incremental bookkeeping.
// ---------------------------------------------------------------------------

/// Run the same multiply through both executors and require bit equality
/// of C plus identical modelled stats.
void expect_pipelined_bit_exact(CakeOptions base, index_t m, index_t n,
                                index_t k, float alpha, float beta,
                                std::uint64_t seed)
{
    Rng rng(seed);
    const bool ta = base.op_a == Op::kTranspose;
    const bool tb = base.op_b == Op::kTranspose;
    Matrix a(ta ? k : m, ta ? m : k);
    Matrix b(tb ? n : k, tb ? k : n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c_serial(m, n);
    c_serial.fill_random(rng);  // beta != 0 must read identical inputs
    Matrix c_piped(m, n);
    std::memcpy(c_piped.data(), c_serial.data(),
                static_cast<std::size_t>(m) * n * sizeof(float));

    base.exec = CakeExec::kSerial;
    CakeGemm serial(test_pool(), base);
    serial.multiply_scaled(a.data(), a.cols(), b.data(), b.cols(),
                           c_serial.data(), n, m, n, k, alpha, beta);
    base.exec = CakeExec::kPipelined;
    CakeGemm piped(test_pool(), base);
    piped.multiply_scaled(a.data(), a.cols(), b.data(), b.cols(),
                          c_piped.data(), n, m, n, k, alpha, beta);

    EXPECT_EQ(std::memcmp(c_serial.data(), c_piped.data(),
                          static_cast<std::size_t>(m) * n * sizeof(float)),
              0)
        << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
        << " beta=" << beta << " ta=" << ta << " tb=" << tb
        << " schedule=" << schedule_kind_name(base.schedule);

    const CakeStats& s0 = serial.stats();
    const CakeStats& s1 = piped.stats();
    EXPECT_FALSE(s0.pipelined);
    EXPECT_TRUE(s1.pipelined);
    EXPECT_EQ(s0.blocks_executed, s1.blocks_executed);
    EXPECT_EQ(s0.a_packs, s1.a_packs);
    EXPECT_EQ(s0.b_packs, s1.b_packs);
    EXPECT_EQ(s0.c_flushes, s1.c_flushes);
    EXPECT_EQ(s0.c_partial_spills, s1.c_partial_spills);
    EXPECT_EQ(s0.dram_read_bytes, s1.dram_read_bytes);
    EXPECT_EQ(s0.dram_write_bytes, s1.dram_write_bytes);
}

TEST(CakeExecAuto, OverlapOffForOneWorkerOnForTwoOrMore)
{
    // kAuto overlaps only when a second worker can pack while another
    // computes; the explicit modes win at every p.
    Rng rng(77);
    Matrix a(96, 80), b(80, 112), c(96, 112);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);
    for (const int p : {1, 2, 4}) {
        for (const CakeExec exec :
             {CakeExec::kAuto, CakeExec::kSerial, CakeExec::kPipelined}) {
            CakeOptions options = tiny_block_options();
            options.p = p;
            options.exec = exec;
            CakeGemm gemm(test_pool(), options);
            gemm.multiply(a.data(), a.cols(), b.data(), b.cols(), c.data(),
                          c.cols(), a.rows(), b.cols(), a.cols());
            ASSERT_EQ(gemm.stats().params.p, p);
            const bool want = exec == CakeExec::kPipelined
                              || (exec == CakeExec::kAuto && p > 1);
            EXPECT_EQ(gemm.stats().pipelined, want)
                << "p=" << p << " exec=" << static_cast<int>(exec);
            EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(80))
                << "p=" << p;
        }
    }
}

class PipelinedScheduleTest
    : public ::testing::TestWithParam<ScheduleKind> {};

TEST_P(PipelinedScheduleTest, BitExactVsSerial)
{
    CakeOptions options = tiny_block_options();
    options.schedule = GetParam();
    // Mid-size with all grid dimensions > 1 plus ragged edges.
    expect_pipelined_bit_exact(options, 70, 90, 60, 1.0f, 0.0f, 101);
    expect_pipelined_bit_exact(options, 64, 80, 48, 1.0f, 1.0f, 102);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, PipelinedScheduleTest,
                         ::testing::Values(ScheduleKind::kKFirstSerpentine,
                                           ScheduleKind::kKFirstNoFlip,
                                           ScheduleKind::kNInnermost),
                         [](const auto& info) {
                             std::string name =
                                 schedule_kind_name(info.param);
                             for (char& ch : name)
                                 if (ch == '-') ch = '_';
                             return name;
                         });

TEST(CakePipelined, BitExactOnEdgeShapes)
{
    // m, n, k deliberately not multiples of the block sizes (nor of mr/nr),
    // plus single-block and single-row/column extremes.
    const CakeOptions options = tiny_block_options();
    const std::vector<std::tuple<index_t, index_t, index_t>> shapes = {
        {1, 1, 1},   {1, 97, 13},  {97, 1, 13},  {13, 17, 1},
        {5, 7, 3},   {97, 89, 83}, {101, 53, 67}};
    std::uint64_t seed = 200;
    for (const auto& [m, n, k] : shapes) {
        expect_pipelined_bit_exact(options, m, n, k, 1.0f, 0.0f, ++seed);
    }
}

TEST(CakePipelined, BitExactWithTransposedOperands)
{
    for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
            CakeOptions options = tiny_block_options();
            options.op_a = ta ? Op::kTranspose : Op::kNone;
            options.op_b = tb ? Op::kTranspose : Op::kNone;
            expect_pipelined_bit_exact(options, 61, 74, 53, 1.0f, 0.0f,
                                       300 + (ta ? 2 : 0) + (tb ? 1 : 0));
        }
    }
}

TEST(CakePipelined, BitExactWithScaledEpilogue)
{
    const CakeOptions options = tiny_block_options();
    expect_pipelined_bit_exact(options, 45, 58, 37, 0.5f, 0.25f, 400);
    expect_pipelined_bit_exact(options, 45, 58, 37, -1.5f, 1.0f, 401);
    expect_pipelined_bit_exact(options, 45, 58, 37, 2.0f, 0.0f, 402);
}

TEST(CakePipelined, BitExactAcrossWorkerCounts)
{
    for (int p = 1; p <= 4; ++p) {
        CakeOptions options = tiny_block_options();
        options.p = p;
        expect_pipelined_bit_exact(options, 66, 87, 49, 1.0f, 0.0f,
                                   500 + static_cast<std::uint64_t>(p));
    }
}

TEST(CakePipelined, BitExactWithPrepackedWeights)
{
    Rng rng(600);
    const index_t m = 77, n = 91, k = 58;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c_serial(m, n);
    Matrix c_piped(m, n);

    CakeOptions options = tiny_block_options();
    options.exec = CakeExec::kSerial;
    CakeGemm serial(test_pool(), options);
    const PackedB<float> packed_s = serial.pack_weights(b.data(), n, k, n);
    serial.multiply_prepacked(a.data(), k, packed_s, c_serial.data(), n, m);

    options.exec = CakeExec::kPipelined;
    CakeGemm piped(test_pool(), options);
    const PackedB<float> packed_p = piped.pack_weights(b.data(), n, k, n);
    piped.multiply_prepacked(a.data(), k, packed_p, c_piped.data(), n, m);

    EXPECT_EQ(std::memcmp(c_serial.data(), c_piped.data(),
                          static_cast<std::size_t>(m) * n * sizeof(float)),
              0);
    EXPECT_EQ(serial.stats().b_packs, 0);
    EXPECT_EQ(piped.stats().b_packs, 0);
    EXPECT_EQ(serial.stats().dram_read_bytes,
              piped.stats().dram_read_bytes);
}

TEST(CakePipelined, PhaseAttributionDecomposesTotal)
{
    Rng rng(700);
    const index_t m = 96, n = 128, k = 72;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
        CakeOptions options = tiny_block_options();
        options.exec = exec;
        CakeStats stats;
        cake_sgemm(a.data(), b.data(), Matrix(m, n).data(), m, n, k,
                   test_pool(), options, &stats);
        EXPECT_EQ(stats.pipelined, exec == CakeExec::kPipelined);
        EXPECT_GT(stats.total_seconds, 0.0);
        EXPECT_GE(stats.pack_seconds, 0.0);
        EXPECT_GE(stats.compute_seconds, 0.0);
        EXPECT_GE(stats.flush_seconds, 0.0);
        EXPECT_GE(stats.stall_seconds, 0.0);
        // The four phase components never exceed the measured wall time
        // (they are per-average-core attributions of it).
        const double sum = stats.pack_seconds + stats.compute_seconds
            + stats.flush_seconds + stats.stall_seconds;
        EXPECT_LE(sum, stats.total_seconds * 1.10 + 1e-4);
        EXPECT_GE(stats.overlap_efficiency, 0.0);
        EXPECT_LE(stats.overlap_efficiency, 1.0);
        if (exec == CakeExec::kSerial) {
            EXPECT_EQ(stats.overlap_efficiency, 0.0);
        } else {
            // The pipeline co-issues every pack after the first block's:
            // with more than one K block per column, some packing must
            // have been taken off the critical path.
            EXPECT_GT(stats.overlap_efficiency, 0.0);
        }
    }
}

TEST(CakePipelined, RunTeamReuseTorture)
{
    // One CakeGemm context issuing many back-to-back pipelined multiplies:
    // every iteration is a fresh run_team dispatch over the same pool and a
    // fresh SpinBarrier at a (likely recycled) stack address. Under
    // CAKE_RACECHECK this stresses fork/join/barrier clock reuse; under
    // TSan (tools/run_tsan.sh runs this test) it tortures the real
    // synchronisation. Results must stay bit-exact with the serial
    // executor on every iteration.
    constexpr int kIters = 30;
    Rng rng(700);
    const index_t m = 66, n = 54, k = 42;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options = tiny_block_options();
    options.exec = CakeExec::kSerial;
    Matrix c_ref(m, n);
    CakeGemm serial(test_pool(), options);
    serial.multiply(a.data(), k, b.data(), n, c_ref.data(), n, m, n, k);

    options.exec = CakeExec::kPipelined;
    CakeGemm piped(test_pool(), options);
    Matrix c(m, n);
    for (int iter = 0; iter < kIters; ++iter) {
        c.fill(0.0F);
        piped.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
        ASSERT_EQ(std::memcmp(c.data(), c_ref.data(),
                              static_cast<std::size_t>(m) * n
                                  * sizeof(float)),
                  0)
            << "iteration " << iter;
    }
}

TEST(CakeGemm, ForcedScalarIsaMatches)
{
    Rng rng(16);
    Matrix a(50, 40);
    Matrix b(40, 60);
    a.fill_random(rng);
    b.fill_random(rng);
    CakeOptions options;
    options.isa = Isa::kScalar;
    // mc must align with the *forced* kernel's register rows.
    options.mc = microkernel_for(Isa::kScalar).mr * 3;
    const Matrix c = cake_gemm(a, b, test_pool(), options);
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), gemm_tolerance(40));
}

}  // namespace
}  // namespace cake
