// Miscellaneous edge-path tests: umbrella header compilation, environment
// overrides, region attribution, nested pool jobs, and a loose
// performance-regression smoke check.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>

#include "cake.hpp"  // the umbrella header must compile standalone

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

TEST(Umbrella, SymbolsReachable)
{
    // A handful of symbols from across the library, through one include.
    EXPECT_GE(best_microkernel().mr, 1);
    EXPECT_EQ(table2_machines().size(), 3u);
    EXPECT_GT(model::cake_ext_bw(1.0, 6, 16), 0.0);
    EXPECT_STREQ(sim::packet_kind_name(sim::PacketKind::kSurfaceB),
                 "surface-B");
}

TEST(EnvOverride, DramBandwidthRespected)
{
    ::setenv("CAKE_DRAM_BW_GBS", "99", 1);
    EXPECT_DOUBLE_EQ(host_machine().dram_bw_gbs, 99.0);
    ::unsetenv("CAKE_DRAM_BW_GBS");
    EXPECT_NE(host_machine().dram_bw_gbs, 99.0);
}

TEST(RegionAttribution, FillsLandInTheRightRegion)
{
    memsim::HierarchySim sim(intel_i9_10900k(), 1);
    sim.set_regions({{0, 1 << 20, "low"}, {1ULL << 32, 1 << 20, "high"}});
    sim.access(0, 64, 64, false);                 // low
    sim.access(0, (1ULL << 32) + 128, 64, false); // high
    sim.access(0, 1ULL << 40, 64, false);         // other
    const auto rows = sim.dram_accesses_by_region();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], (std::pair<std::string, std::uint64_t>{"low", 1}));
    EXPECT_EQ(rows[1], (std::pair<std::string, std::uint64_t>{"high", 1}));
    EXPECT_EQ(rows[2], (std::pair<std::string, std::uint64_t>{"other", 1}));
}

TEST(NestedPool, WidthOneJobsInsideTeamJobAreSafe)
{
    // The guarantee cake_gemm_batched relies on: a pool worker may
    // construct its own p=1 GEMM context whose internal pool.run(1, ...)
    // calls take the inline fast path.
    ThreadPool& pool = test_pool();
    Rng rng(601);
    Matrix a(40, 40);
    Matrix b(40, 40);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);

    std::atomic<int> failures{0};
    pool.run(4, [&](int) {
        CakeOptions options;
        options.p = 1;
        options.mc = best_microkernel().mr;
        CakeGemm gemm(pool, options);
        Matrix c(40, 40);
        gemm.multiply(a.data(), 40, b.data(), 40, c.data(), 40, 40, 40, 40);
        if (max_abs_diff(c, expected) > gemm_tolerance(40)) ++failures;
    });
    EXPECT_EQ(failures.load(), 0);
}

TEST(PerfSmoke, CakeBeatsBlockedNaiveComfortably)
{
    // A deliberately loose regression tripwire: the SIMD-packed CAKE path
    // must outrun the scalar blocked loop by a wide margin at 512^3.
    Rng rng(602);
    const index_t n = 512;
    Matrix a(n, n);
    Matrix b(n, n);
    Matrix c(n, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeGemm gemm(test_pool());
    gemm.multiply(a.data(), n, b.data(), n, c.data(), n, n, n, n);  // warm
    double cake_best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        gemm.multiply(a.data(), n, b.data(), n, c.data(), n, n, n, n);
        cake_best = std::min(cake_best, gemm.stats().total_seconds);
    }

    Timer t;
    blocked_sgemm(a.data(), n, b.data(), n, c.data(), n, n, n, n, false);
    const double naive_s = t.seconds();

    EXPECT_LT(cake_best * 3, naive_s)
        << "CAKE " << cake_best << " s vs blocked naive " << naive_s
        << " s — SIMD path regressed?";
}

TEST(ChannelRmw, PartialCPacketsServedAtRmwRate)
{
    sim::EventQueue q;
    sim::Channel ch(q, 100.0, "dram", /*rmw=*/10.0);
    sim::Packet streaming{1, sim::PacketKind::kSurfaceA, {}, 100};
    sim::Packet rmw{2, sim::PacketKind::kPartialC, {}, 100};
    const auto i1 = ch.transfer(0.0, streaming);
    const auto i2 = ch.transfer(0.0, rmw);
    EXPECT_DOUBLE_EQ(i1.end - i1.start, 1.0);   // 100 B at 100 B/s
    EXPECT_DOUBLE_EQ(i2.end - i2.start, 10.0);  // 100 B at 10 B/s
}

TEST(TimelineEdge, EmptyTimelineExportsValidJson)
{
    sim::Timeline timeline;
    EXPECT_TRUE(timeline.empty());
    EXPECT_DOUBLE_EQ(timeline.span(), 0.0);
    std::ostringstream os;
    timeline.write_chrome_trace(os);
    EXPECT_EQ(os.str(), "[\n]\n");
    EXPECT_STREQ(sim::slice_kind_name(sim::SliceKind::kDrain), "drain");
}

TEST(Extrapolate, MachineAtOrBelowBaseCoresUnchanged)
{
    const MachineSpec base = intel_i9_10900k();
    const MachineSpec same = model::extrapolated_machine(base, 10);
    EXPECT_EQ(same.cores, base.cores);
    EXPECT_EQ(same.llc_bytes(), base.llc_bytes());
    const MachineSpec fewer = model::extrapolated_machine(base, 4);
    EXPECT_EQ(fewer.llc_bytes(), base.llc_bytes())
        << "shrinking p must not shrink the machine";
}

TEST(AcceleratorPreset, WellFormedAndLinkVariantsDiffer)
{
    const MachineSpec hbm = accelerator_64pe(true);
    const MachineSpec ddr = accelerator_64pe(false);
    EXPECT_EQ(hbm.cores, 64);
    EXPECT_GT(hbm.dram_bw_gbs, ddr.dram_bw_gbs * 5);
    EXPECT_EQ(hbm.llc_bytes(), ddr.llc_bytes());
    EXPECT_GT(hbm.internal_bw_at(64), hbm.internal_bw_at(1));
    // The CB solver must produce a valid block on the accelerator too.
    const CbBlockParams params = compute_cb_block(ddr, 64, 8, 8);
    EXPECT_LE(params.lru_working_set_bytes(), ddr.llc_bytes());
    EXPECT_GE(params.alpha, 1.0);
}

TEST(Table2Machines, SimulatorHandlesEveryPresetEndToEnd)
{
    for (const MachineSpec& m : table2_machines()) {
        for (int p : {1, m.cores}) {
            sim::SimConfig config;
            config.machine = m;
            config.p = p;
            config.shape = {512, 512, 512};
            const auto r = sim::simulate(config);
            EXPECT_GT(r.gflops, 0) << m.name << " p=" << p;
            EXPECT_LE(r.gflops, m.peak_gflops(p) * 1.0001);
        }
    }
}

}  // namespace
}  // namespace cake
