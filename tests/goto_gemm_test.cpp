// GOTO baseline correctness and stats tests.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <string>
#include <tuple>

#include "common/checked.hpp"
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

TEST(GotoGemm, DoubleBlockingFitsTheLlcAtItsWidth)
{
    // GotoGemmD sizes its kc x nc B panel for 8-byte elements: it fills
    // at most the 0.9 LLC share GOTO targets (§4.4).
    for (const MachineSpec& m : table2_machines()) {
        GotoOptions options;
        options.machine = m;
        GotoGemmD gemm(test_pool(), options);
        MatrixD a(8, 8);
        MatrixD b(8, 8);
        MatrixD c(8, 8);
        gemm.multiply(a.data(), 8, b.data(), 8, c.data(), 8, 8, 8, 8);
        const GotoStats& s = gemm.stats();
        EXPECT_LE(static_cast<double>(s.kc * s.nc) * sizeof(double),
                  0.9 * static_cast<double>(m.llc_bytes()))
            << m.name << " kc=" << s.kc << " nc=" << s.nc;
    }
}

TEST(GotoGemm, PackBuffersFollowTheCallNotTheBlocking)
{
    // A default GOTO context sizes nc to fill the host LLC and kc to fill
    // the L2; an n = 64 call must still reserve a B panel of 64 columns,
    // not nc, and a k = 8 call panels 8 rows deep, not kc. CAKE_CHECKED
    // builds poison-fill every pack buffer, so there an oversized panel
    // shows as resident memory (this process's high-water mark, so the
    // check is sharpest when the test runs alone, as ctest runs it). The
    // wide shallow call's own operands take about 36 MB.
    const auto max_rss_kb = [] {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return usage.ru_maxrss;
    };
    const index_t shapes[][3] = {{64, 64, 64}, {64, 131072, 8}};
    for (const auto& [m, n, k] : shapes) {
        const long before = max_rss_kb();
        Matrix a(m, k);
        Matrix b(k, n);
        Matrix c(m, n);
        GotoGemm gemm(test_pool());
        gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
        const long growth_kb = max_rss_kb() - before;
        if (CAKE_CHECKED_ENABLED) {
            EXPECT_LT(growth_kb, 64 * 1024)
                << m << "x" << n << "x" << k << ": nc=" << gemm.stats().nc
                << " kc=" << gemm.stats().kc;
        }
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

/// One pinned GOTO run: shape, worker count, accumulate, and the modelled
/// counts GotoStats reported for it. mc = kc = 168 and nc = 96 are
/// multiples of every registered f32 kernel's mr (14, 6, 8) and nr (32,
/// 16, 8), so the pins hold under every forced ISA.
struct GotoPin {
    index_t m, n, k;
    int p;
    bool accumulate;
    index_t c_passes, a_packs, b_packs;
    std::uint64_t dram_read_bytes, dram_write_bytes;
};

TEST(GotoGemm, PinnedStatsPerShape)
{
    // Covers m <= p*mc (C would stay resident across K under a K-first
    // rule), k <= kc with n > nc (A would not be re-packed per jc), n <=
    // nc, edge remainders in m, n and k, accumulate on and off, p = 1 and
    // 4. Values were recorded from the GOTO loop before it became a plan
    // of the CAKE executor; they must not be edited.
    const GotoPin pins[] = {
        {100, 80, 60, 4, false, 1, 1, 1, 43200, 32000},
        {100, 80, 60, 4, true, 1, 1, 1, 75200, 32000},
        {500, 96, 170, 4, false, 2, 6, 2, 597280, 384000},
        {500, 96, 170, 4, true, 2, 6, 2, 789280, 384000},
        {300, 300, 150, 4, false, 4, 8, 4, 900000, 360000},
        {300, 300, 150, 4, true, 4, 8, 4, 1260000, 360000},
        {700, 200, 400, 4, false, 9, 45, 9, 4800000, 1680000},
        {700, 200, 400, 4, true, 9, 45, 9, 5360000, 1680000},
        {100, 50, 100, 1, false, 1, 1, 1, 60000, 20000},
        {100, 50, 100, 1, true, 1, 1, 1, 80000, 20000},
        {170, 150, 340, 1, false, 6, 12, 6, 870400, 306000},
        {170, 150, 340, 1, true, 6, 12, 6, 972400, 306000},
    };
    for (const GotoPin& pin : pins) {
        Matrix a(pin.m, pin.k);
        Matrix b(pin.k, pin.n);
        Matrix c(pin.m, pin.n);
        c.fill(1.0f);
        GotoOptions options;
        options.p = pin.p;
        options.mc = 168;
        options.nc = 96;
        options.accumulate = pin.accumulate;
        GotoGemm gemm(test_pool(), options);
        gemm.multiply(a.data(), pin.k, b.data(), pin.n, c.data(), pin.n,
                      pin.m, pin.n, pin.k);
        const GotoStats& s = gemm.stats();
        std::string at = mnk_name(std::tuple{pin.m, pin.n, pin.k});
        at += " p=";
        at += std::to_string(pin.p);
        if (pin.accumulate) at += " accumulate";
        EXPECT_EQ(s.mc, 168) << at;
        EXPECT_EQ(s.kc, 168) << at;
        EXPECT_EQ(s.nc, 96) << at;
        EXPECT_EQ(s.c_passes, pin.c_passes) << at;
        EXPECT_EQ(s.a_packs, pin.a_packs) << at;
        EXPECT_EQ(s.b_packs, pin.b_packs) << at;
        EXPECT_EQ(s.dram_read_bytes, pin.dram_read_bytes) << at;
        EXPECT_EQ(s.dram_write_bytes, pin.dram_write_bytes) << at;
    }
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
