// Tests for the paper's extension features: M/K-direction CB blocks (§3),
// the TLB model (GOTO lineage, ref [12]), the pmbw-style bandwidth probe,
// and multi-tenant co-scheduling on a shared DRAM channel (§6.1).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "machine/bw_probe.hpp"
#include "machine/machine.hpp"
#include "memsim/cache_sim.hpp"
#include "memsim/trace.hpp"
#include "model/direction.hpp"
#include "sim/machine_sim.hpp"

namespace cake {
namespace {

using model::ComputeDim;
using model::DirectionProfile;

TEST(Direction, NDirectionReproducesSection3)
{
    // The N-direction profile must match the paper's §3 equations.
    const double alpha = 2, p = 4, k = 8;
    const DirectionProfile d =
        model::analyze_direction(ComputeDim::kN, alpha, p, k);
    EXPECT_DOUBLE_EQ(d.m, p * k);
    EXPECT_DOUBLE_EQ(d.n, alpha * p * k);
    EXPECT_DOUBLE_EQ(d.time, alpha * p * k);
    // Eq. 2: BW_min = ((alpha+1)/alpha) * k.
    EXPECT_DOUBLE_EQ(d.bw_in, (alpha + 1) / alpha * k);
    // Eq. 1: local memory = alpha*p*k^2 + p*k^2 + alpha*p^2*k^2.
    EXPECT_DOUBLE_EQ(d.local_mem,
                     alpha * p * k * k + p * k * k + alpha * p * p * k * k);
}

TEST(Direction, MDirectionIsSymmetricToN)
{
    // Swapping the roles of A and B must preserve the constant-bandwidth
    // property: identical input bandwidth and local memory.
    for (double p : {1.0, 2.0, 8.0}) {
        const auto n_dir = model::analyze_direction(ComputeDim::kN, 1.5, p, 4);
        const auto m_dir = model::analyze_direction(ComputeDim::kM, 1.5, p, 4);
        EXPECT_DOUBLE_EQ(m_dir.bw_in, n_dir.bw_in);
        EXPECT_DOUBLE_EQ(m_dir.local_mem, n_dir.local_mem);
        EXPECT_DOUBLE_EQ(m_dir.m, n_dir.n);
        EXPECT_DOUBLE_EQ(m_dir.n, n_dir.m);
    }
}

TEST(Direction, InputBandwidthConstantInPForNAndM)
{
    for (ComputeDim dim : {ComputeDim::kN, ComputeDim::kM}) {
        const double bw1 = model::analyze_direction(dim, 1, 1, 4).bw_in;
        const double bw8 = model::analyze_direction(dim, 1, 8, 4).bw_in;
        EXPECT_DOUBLE_EQ(bw1, bw8) << model::compute_dim_name(dim);
    }
}

TEST(Direction, KDirectionTradesInputBandwidthForZeroWrites)
{
    const auto k1 = model::analyze_direction(ComputeDim::kK, 1, 1, 4);
    const auto k8 = model::analyze_direction(ComputeDim::kK, 1, 8, 4);
    EXPECT_DOUBLE_EQ(k1.bw_out, 0.0) << "in-place accumulation";
    EXPECT_DOUBLE_EQ(k8.bw_out, 0.0);
    EXPECT_GT(k8.bw_in, k1.bw_in) << "input bandwidth grows with p";
    // Stationary C needs far less local memory than Eq. 1's three surfaces.
    const auto n8 = model::analyze_direction(ComputeDim::kN, 1, 8, 4);
    EXPECT_LT(k8.local_mem, n8.local_mem);
}

TEST(Direction, BestDirectionFollowsWriteCost)
{
    // Cheap writes: the paper's N direction. Expensive writes (e.g. the
    // NVM technologies in the paper's intro): the K direction.
    EXPECT_EQ(model::best_direction(1, 4, 8, 0.1), ComputeDim::kN);
    EXPECT_EQ(model::best_direction(1, 4, 8, 10.0), ComputeDim::kK);
}

TEST(Tlb, SequentialPagesHitAfterFirstTouch)
{
    memsim::HierarchySim sim(intel_i9_10900k(), 1);
    // 16 KiB scan = 4 pages; repeat hits all 4 in the TLB.
    sim.access(0, 0, 16384, false);
    sim.access(0, 0, 16384, false);
    EXPECT_EQ(sim.counters().tlb_misses, 4u);
    EXPECT_GE(sim.counters().tlb_hits, 4u);
}

TEST(Tlb, StridedColumnWalkThrashes)
{
    memsim::TlbConfig tlb;
    tlb.entries = 64;
    memsim::HierarchySim sim(intel_i9_10900k(), 1, tlb);
    // Walk 256 addresses spaced one page apart, twice: working set of 256
    // pages >> 64 entries, so the second pass misses again.
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t i = 0; i < 256; ++i)
            sim.access(0, i * 4096, 4, false);
    EXPECT_EQ(sim.counters().tlb_misses, 512u);
}

TEST(Tlb, PackedCakeBeatsUnpackedNaive)
{
    // The Goto 2002 result (paper ref [12]): packing slashes TLB misses.
    // The naive inner-product walk strides B by one page per element.
    const MachineSpec intel = intel_i9_10900k();
    const GemmShape shape{32, 2048, 96};

    memsim::HierarchySim naive_sim(intel, 1);
    memsim::HierarchySink naive_sink(naive_sim);
    memsim::trace_naive_ijk(shape, naive_sink);

    memsim::HierarchySim cake_sim(intel, 1);
    memsim::HierarchySink cake_sink(cake_sim);
    TilingOptions topts;
    topts.mc = 24;
    const CbBlockParams params = compute_cb_block(intel, 1, 6, 16, topts);
    memsim::trace_cake(shape, params, ScheduleKind::kKFirstSerpentine,
                       cake_sink);

    const double naive_rate =
        static_cast<double>(naive_sim.counters().tlb_misses)
        / static_cast<double>(naive_sim.counters().accesses);
    const double cake_rate =
        static_cast<double>(cake_sim.counters().tlb_misses)
        / static_cast<double>(cake_sim.counters().accesses);
    EXPECT_LT(cake_rate * 10, naive_rate)
        << "packed panels must lower the per-access TLB miss rate 10x+";
}

TEST(BwProbe, MeasuresPositiveCacheBandwidth)
{
    ThreadPool pool(2);
    const double gbs = measure_scan_bandwidth_gbs(pool, 1, 16 * 1024, 4);
    EXPECT_GT(gbs, 0.1) << "an L1-resident scan must beat 0.1 GB/s";
    EXPECT_LT(gbs, 10000.0) << "and stay below 10 TB/s";
}

TEST(BwProbe, CurveHasOneEntryPerThreadCount)
{
    ThreadPool pool(2);
    const auto curve = probe_internal_bw_curve(pool, 2, 32 * 1024, 2);
    ASSERT_EQ(curve.size(), 2u);
    for (double v : curve) EXPECT_GT(v, 0.0);
}

TEST(BwProbe, ScanReportsEveryWorkingSet)
{
    ThreadPool pool(1);
    const auto points =
        scan_working_sets(pool, 1, {16 * 1024, 256 * 1024}, 2);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].bytes_per_thread, 16u * 1024);
    EXPECT_GT(points[1].gbs, 0.0);
}

TEST(MultiTenant, TwoCakesShareDramGracefully)
{
    // Two CAKE tenants on half the cores each: aggregate throughput close
    // to one full-machine run because neither tenant needs much DRAM.
    const MachineSpec amd = amd_ryzen_5950x();
    const GemmShape shape{2304, 2304, 2304};

    sim::SimConfig solo;
    solo.machine = amd;
    solo.p = 16;
    solo.shape = shape;
    const auto solo_result = sim::simulate(solo);

    sim::SimConfig half = solo;
    half.p = 8;
    const auto pair = sim::simulate_shared_dram({half, half});
    ASSERT_EQ(pair.tenants.size(), 2u);
    EXPECT_GT(pair.aggregate_gflops, 0.75 * solo_result.gflops);
    EXPECT_LT(pair.dram_busy_frac, 0.5);
}

TEST(MultiTenant, GotoPairContendsMoreThanCakePair)
{
    // On the DRAM-starved ARM machine, co-scheduled GOTO tenants fight
    // over the channel; CAKE tenants barely notice each other.
    const MachineSpec arm = arm_cortex_a53();
    const GemmShape shape{768, 768, 768};

    auto tenant = [&](sim::Algorithm algo) {
        sim::SimConfig config;
        config.machine = arm;
        config.p = 2;
        config.shape = shape;
        config.algorithm = algo;
        return config;
    };

    const auto cake_solo = sim::simulate(tenant(sim::Algorithm::kCake));
    const auto cake_pair = sim::simulate_shared_dram(
        {tenant(sim::Algorithm::kCake), tenant(sim::Algorithm::kCake)});
    const auto goto_solo = sim::simulate(tenant(sim::Algorithm::kGoto));
    const auto goto_pair = sim::simulate_shared_dram(
        {tenant(sim::Algorithm::kGoto), tenant(sim::Algorithm::kGoto)});

    // GOTO runs its plan overlap off, so each tenant's own packs already
    // stall its cores; the pair's contention shows as a saturated shared
    // channel and a larger slowdown than CAKE's.
    const double cake_slowdown = cake_pair.makespan / cake_solo.seconds;
    const double goto_slowdown = goto_pair.makespan / goto_solo.seconds;
    EXPECT_LT(cake_slowdown, 1.2) << "CAKE tenants nearly independent";
    EXPECT_GT(goto_pair.dram_busy_frac, 0.9)
        << "GOTO tenants serialised on DRAM";
    EXPECT_GT(goto_slowdown, cake_slowdown)
        << "GOTO tenants serialised on DRAM";
}

TEST(MultiTenant, RejectsMixedMachines)
{
    sim::SimConfig a;
    a.machine = intel_i9_10900k();
    a.p = 2;
    a.shape = {256, 256, 256};
    sim::SimConfig b = a;
    b.machine = arm_cortex_a53();
    EXPECT_THROW(sim::simulate_shared_dram({a, b}), Error);
}

}  // namespace
}  // namespace cake
