// Randomised differential and property tests across the whole stack:
// engines x dtypes x ops x scalars on random shapes, schedule properties
// on random grids, packing round trips on random geometry, and
// prefetcher/cache-simulator invariants.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/verify.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/schedule.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "memsim/cache_sim.hpp"
#include "memsim/trace.hpp"
#include "model/throughput.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, RandomConfigurationMatchesOracle)
{
    Rng rng(GetParam());
    const auto m = static_cast<index_t>(1 + rng.next_below(120));
    const auto n = static_cast<index_t>(1 + rng.next_below(120));
    const auto k = static_cast<index_t>(1 + rng.next_below(120));

    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);

    CakeOptions options;
    options.p = static_cast<int>(1 + rng.next_below(4));
    options.mc =
        best_microkernel().mr * static_cast<index_t>(1 + rng.next_below(3));
    const std::vector<ScheduleKind>& kinds = all_schedule_kinds();
    options.schedule = kinds[rng.next_below(kinds.size())];
    const bool use_alpha_override = rng.next_below(2) == 0;
    if (use_alpha_override)
        options.alpha = 1.0 + static_cast<double>(rng.next_below(3));

    CakeStats stats;
    const Matrix c = cake_gemm(a, b, test_pool(), options, &stats);
    EXPECT_LE(max_abs_diff(c, expected), gemm_tolerance(k))
        << "m=" << m << " n=" << n << " k=" << k << " p=" << options.p
        << " schedule=" << schedule_kind_name(options.schedule);

    // Driver traffic must equal the model's plan bit for bit, and that
    // plan's IR the closed-form Eq.-2 walk.
    const auto traffic = model::cake_traffic(
        GemmShape{m, n, k}, stats.params, options.schedule);
    EXPECT_EQ(stats.dram_read_bytes, traffic.dram_read_bytes);
    EXPECT_EQ(stats.dram_write_bytes, traffic.dram_write_bytes);
    const schedir::VerifyReport report =
        schedir::verify_schedule_ir(schedir::extract_cake_ir(
            GemmShape{m, n, k}, stats.params, options.schedule,
            stats.pipelined ? schedir::Exec::kPipelined
                            : schedir::Exec::kSerial));
    EXPECT_FALSE(report.has("IR_IO_MODEL")) << report.codes();
}

TEST_P(FuzzSeedTest, RandomScaledTransposedGemm)
{
    Rng rng(GetParam() ^ 0xABCDEF);
    const auto m = static_cast<index_t>(1 + rng.next_below(80));
    const auto n = static_cast<index_t>(1 + rng.next_below(80));
    const auto k = static_cast<index_t>(1 + rng.next_below(80));
    const bool ta = rng.next_below(2) == 0;
    const bool tb = rng.next_below(2) == 0;
    const float alpha = rng.next_float(-2, 2);
    const float beta = rng.next_float(-1, 1);

    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(m, n);
    c.fill_random(rng);
    Matrix c0(m, n);
    for (index_t i = 0; i < m * n; ++i) c0.data()[i] = c.data()[i];

    Matrix a_stored = ta ? Matrix(k, m) : Matrix(m, k);
    if (ta) {
        for (index_t i = 0; i < m; ++i)
            for (index_t p = 0; p < k; ++p) a_stored.at(p, i) = a.at(i, p);
    } else {
        for (index_t i = 0; i < m * k; ++i)
            a_stored.data()[i] = a.data()[i];
    }
    Matrix b_stored = tb ? Matrix(n, k) : Matrix(k, n);
    if (tb) {
        for (index_t p = 0; p < k; ++p)
            for (index_t j = 0; j < n; ++j) b_stored.at(j, p) = b.at(p, j);
    } else {
        for (index_t i = 0; i < k * n; ++i)
            b_stored.data()[i] = b.data()[i];
    }

    CakeOptions options;
    options.op_a = ta ? Op::kTranspose : Op::kNone;
    options.op_b = tb ? Op::kTranspose : Op::kNone;
    options.mc = best_microkernel().mr * 2;
    CakeGemm gemm(test_pool(), options);
    gemm.multiply_scaled(a_stored.data(), a_stored.cols(), b_stored.data(),
                         b_stored.cols(), c.data(), n, m, n, k, alpha, beta);

    Matrix expected = oracle_gemm(a, b);
    for (index_t i = 0; i < m; ++i)
        for (index_t j = 0; j < n; ++j)
            expected.at(i, j) =
                alpha * expected.at(i, j) + beta * c0.at(i, j);
    EXPECT_LE(max_abs_diff(c, expected), 4 * gemm_tolerance(k))
        << "ta=" << ta << " tb=" << tb << " alpha=" << alpha
        << " beta=" << beta;
}

TEST_P(FuzzSeedTest, RandomGridScheduleProperties)
{
    Rng rng(GetParam() ^ 0x1234);
    const auto mb = static_cast<index_t>(1 + rng.next_below(9));
    const auto nb = static_cast<index_t>(1 + rng.next_below(9));
    const auto kb = static_cast<index_t>(1 + rng.next_below(9));
    const bool n_outer = rng.next_below(2) == 0;

    const auto order = build_schedule(ScheduleKind::kKFirstSerpentine, mb,
                                      nb, kb, n_outer);
    ASSERT_EQ(static_cast<index_t>(order.size()), mb * nb * kb);
    // Every consecutive pair one grid step apart; no partial-C spills.
    EXPECT_EQ(count_shared_steps(order),
              static_cast<index_t>(order.size()) - 1);
    EXPECT_EQ(schedule_traffic(ScheduleKind::kKFirstSerpentine, order).c_spills,
              0);
}

TEST_P(FuzzSeedTest, RandomPackRoundTrip)
{
    Rng rng(GetParam() ^ 0x9999);
    const auto m = static_cast<index_t>(1 + rng.next_below(60));
    const auto k = static_cast<index_t>(1 + rng.next_below(60));
    const index_t mrs[] = {4, 6, 8, 14, 16};
    const index_t mr = mrs[rng.next_below(5)];

    Matrix a(m, k);
    a.fill_random(rng);
    std::vector<float> packed(
        static_cast<std::size_t>(packed_a_size(m, k, mr)), -1.0f);
    pack_a_panel(a.data(), k, m, k, mr, packed.data());
    for (index_t i = 0; i < round_up(m, mr); ++i) {
        for (index_t p = 0; p < k; ++p) {
            const float expected = i < m ? a.at(i, p) : 0.0f;
            ASSERT_EQ(packed_a_at(packed.data(), m, k, mr, i, p), expected);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u),
                         [](const auto& info) {
                             return "seed" + std::to_string(info.param);
                         });

TEST(Prefetcher, SequentialStreamHidesDemandMisses)
{
    const MachineSpec intel = intel_i9_10900k();
    memsim::PrefetchConfig on;
    on.enabled = true;
    on.degree = 4;

    auto run = [&](const memsim::PrefetchConfig& pf) {
        memsim::HierarchySim sim(intel, 1, {}, pf);
        // 256 MiB sequential scan: far beyond every cache.
        for (std::uint64_t off = 0; off < 256ULL << 20; off += 64)
            sim.access(0, off, 64, false);
        return sim.counters();
    };
    const auto off_counters = run({});
    const auto on_counters = run(on);

    EXPECT_EQ(off_counters.dram_prefetch_fills, 0u);
    EXPECT_LT(on_counters.dram_accesses, off_counters.dram_accesses / 2)
        << "stream prefetch must hide most demand misses";
    // Total DRAM traffic (demand + prefetch) is conserved (+/- edge lines).
    const auto total_on =
        on_counters.dram_accesses + on_counters.dram_prefetch_fills;
    EXPECT_NEAR(static_cast<double>(total_on),
                static_cast<double>(off_counters.dram_accesses),
                static_cast<double>(off_counters.dram_accesses) * 0.01);
}

TEST(Prefetcher, RandomAccessGainsNothing)
{
    const MachineSpec intel = intel_i9_10900k();
    memsim::PrefetchConfig on;
    on.enabled = true;
    Rng rng(7);

    memsim::HierarchySim sim(intel, 1, {}, on);
    for (int i = 0; i < 100000; ++i) {
        sim.access(0, rng.next_below(1ULL << 34) * 64, 4, false);
    }
    // A random stream never forms sequential runs: almost no prefetches.
    EXPECT_LT(sim.counters().dram_prefetch_fills,
              sim.counters().dram_accesses / 100);
}

TEST(Fuzz, MemsimTrafficAtLeastCompulsory)
{
    // For random small shapes, simulated DRAM traffic can never be below
    // the compulsory minimum (read A and B once, write C once).
    Rng rng(77);
    const MachineSpec arm = arm_cortex_a53();
    for (int trial = 0; trial < 3; ++trial) {
        const auto m = static_cast<index_t>(128 + rng.next_below(128));
        const auto n = static_cast<index_t>(128 + rng.next_below(128));
        const auto k = static_cast<index_t>(128 + rng.next_below(128));
        const GemmShape shape{m, n, k};
        const auto report = memsim::simulate_cake_memory(arm, 2, shape);
        const double compulsory = static_cast<double>(
            (m * k + k * n + m * n) * static_cast<index_t>(sizeof(float)));
        EXPECT_GE(static_cast<double>(
                      report.counters.dram_bytes(report.line_bytes)),
                  compulsory)
            << "m=" << m << " n=" << n << " k=" << k;
    }
}

TEST(Fuzz, GotoRandomShapesMatchOracle)
{
    Rng rng(88);
    for (int trial = 0; trial < 6; ++trial) {
        const auto m = static_cast<index_t>(1 + rng.next_below(100));
        const auto n = static_cast<index_t>(1 + rng.next_below(100));
        const auto k = static_cast<index_t>(1 + rng.next_below(100));
        Matrix a(m, k);
        Matrix b(k, n);
        a.fill_random(rng);
        b.fill_random(rng);
        GotoOptions options;
        options.p = static_cast<int>(1 + rng.next_below(4));
        options.mc = best_microkernel().mr
            * static_cast<index_t>(1 + rng.next_below(3));
        options.nc = best_microkernel().nr
            * static_cast<index_t>(1 + rng.next_below(3));
        const Matrix c = goto_gemm(a, b, test_pool(), options);
        EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), gemm_tolerance(k))
            << "trial " << trial;
    }
}

}  // namespace
}  // namespace cake
