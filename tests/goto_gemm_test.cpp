// GOTO baseline correctness and stats tests.
#include <gtest/gtest.h>

#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"
#include "test_names.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

GotoOptions tiny_options()
{
    GotoOptions options;
    options.mc = best_microkernel().mr * 3;
    options.nc = best_microkernel().nr * 2;
    return options;
}

using ShapeParam = std::tuple<index_t, index_t, index_t>;

class GotoShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GotoShapeTest, MatchesOracle)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 31 + n * 37 + k * 41));
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    const Matrix c = goto_gemm(a, b, test_pool(), tiny_options());
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), gemm_tolerance(k))
        << "m=" << m << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GotoShapeTest,
    ::testing::Values(ShapeParam{1, 1, 1}, ShapeParam{5, 6, 7},
                      ShapeParam{64, 64, 64}, ShapeParam{97, 89, 83},
                      ShapeParam{256, 8, 8}, ShapeParam{8, 256, 8},
                      ShapeParam{8, 8, 256}, ShapeParam{150, 75, 33},
                      ShapeParam{100, 100, 100}),
    [](const auto& info) { return mnk_name(info.param); });

TEST(GotoGemm, AccumulateSemantics)
{
    Rng rng(2);
    Matrix a(40, 30);
    Matrix b(30, 50);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(40, 50);
    c.fill(1.0f);

    GotoOptions options = tiny_options();
    options.accumulate = true;
    goto_sgemm(a.data(), b.data(), c.data(), 40, 50, 30, test_pool(),
               options);

    Matrix expected = oracle_gemm(a, b);
    for (index_t i = 0; i < expected.rows(); ++i)
        for (index_t j = 0; j < expected.cols(); ++j)
            expected.at(i, j) += 1.0f;
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(30));
}

TEST(GotoGemm, AllWorkerCountsAgree)
{
    Rng rng(3);
    Matrix a(120, 70);
    Matrix b(70, 90);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);
    for (int p = 1; p <= 4; ++p) {
        GotoOptions options = tiny_options();
        options.p = p;
        const Matrix c = goto_gemm(a, b, test_pool(), options);
        EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(70)) << "p=" << p;
    }
}

TEST(GotoGemm, DefaultBlockingFitsCaches)
{
    for (const MachineSpec& m : table2_machines()) {
        const GotoBlocking blocking = goto_default_blocking(m, 6, 16);
        EXPECT_EQ(blocking.mc, blocking.kc) << m.name;
        EXPECT_EQ(blocking.mc % 6, 0);
        EXPECT_EQ(blocking.nc % 16, 0);
        // kc x nc B panel fits the LLC (GOTO fills it, §4.4).
        EXPECT_LE(static_cast<std::size_t>(blocking.kc * blocking.nc)
                      * sizeof(float),
                  m.llc_bytes());
    }
}

TEST(GotoGemm, CTrafficGrowsWithKPasses)
{
    // The defining GOTO cost (§4.1): partial C streams to DRAM once per
    // kc pass, so halving kc doubles C write traffic.
    Rng rng(4);
    const index_t m = 96, n = 96, k = 96;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(m, n);

    const index_t mr = best_microkernel().mr;
    const index_t nr = best_microkernel().nr;
    GotoStats coarse, fine;
    GotoOptions oc;
    oc.mc = round_up(96, mr);  // one pass
    oc.nc = round_up(96, nr);
    goto_sgemm(a.data(), b.data(), c.data(), m, n, k, test_pool(), oc,
               &coarse);
    GotoOptions of;
    of.mc = mr;  // many passes
    of.nc = round_up(96, nr);
    goto_sgemm(a.data(), b.data(), c.data(), m, n, k, test_pool(), of, &fine);

    EXPECT_GT(fine.dram_write_bytes, coarse.dram_write_bytes);
    EXPECT_GT(fine.c_passes, coarse.c_passes);
}

TEST(GotoGemm, StatsInvariants)
{
    Rng rng(5);
    const index_t m = 80, n = 100, k = 60;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(m, n);
    GotoStats stats;
    goto_sgemm(a.data(), b.data(), c.data(), m, n, k, test_pool(),
               tiny_options(), &stats);

    const index_t jc_steps = ceil_div(n, stats.nc);
    const index_t pc_steps = ceil_div(k, stats.kc);
    EXPECT_EQ(stats.c_passes, jc_steps * pc_steps);
    EXPECT_EQ(stats.b_packs, jc_steps * pc_steps);
    EXPECT_EQ(stats.a_packs, jc_steps * pc_steps * ceil_div(m, stats.mc));
    // C is written once per pass: write bytes = passes' worth of panels.
    EXPECT_EQ(stats.dram_write_bytes,
              static_cast<std::uint64_t>(m) * n * pc_steps * sizeof(float));
    EXPECT_GT(stats.total_seconds, 0.0);
}

TEST(GotoGemm, ZeroKZeroesOrPreserves)
{
    Matrix c(3, 3);
    c.fill(7.0f);
    GotoGemm gemm(test_pool());
    gemm.multiply(nullptr, 0, nullptr, 3, c.data(), 3, 3, 3, 0);
    EXPECT_EQ(max_abs_diff(c, Matrix(3, 3)), 0.0);
}

}  // namespace
}  // namespace cake
