// Architecture-simulator tests: event engine, channels, pipeline results,
// the constant-bandwidth property, and functional schedule validation.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "sim/channel.hpp"
#include "sim/event.hpp"
#include "sim/machine_sim.hpp"

namespace cake {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    sim::EventQueue q;
    std::vector<int> log;
    q.schedule(3.0, [&] { log.push_back(3); });
    q.schedule(1.0, [&] { log.push_back(1); });
    q.schedule(2.0, [&] { log.push_back(2); });
    q.run_all();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, StableAtSameTimestamp)
{
    sim::EventQueue q;
    std::vector<int> log;
    for (int i = 0; i < 5; ++i) q.schedule(1.0, [&, i] { log.push_back(i); });
    q.run_all();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    sim::EventQueue q;
    int fired = 0;
    q.schedule(1.0, [&] {
        ++fired;
        q.schedule(2.0, [&] { ++fired; });
    });
    EXPECT_DOUBLE_EQ(q.run_all(), 2.0);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RejectsPastEvents)
{
    sim::EventQueue q;
    q.schedule(5.0, [] {});
    q.run_all();
    EXPECT_THROW(q.schedule(1.0, [] {}), Error);
}

TEST(Channel, SerialisesByBandwidth)
{
    sim::EventQueue q;
    sim::Channel ch(q, 100.0, "test");  // 100 bytes/s
    sim::Packet p1{1, sim::PacketKind::kSurfaceA, {}, 200};
    sim::Packet p2{2, sim::PacketKind::kSurfaceB, {}, 100};
    const double t1 = ch.transfer(0.0, p1).end;
    const double t2 = ch.transfer(0.0, p2).end;
    EXPECT_DOUBLE_EQ(t1, 2.0);
    EXPECT_DOUBLE_EQ(t2, 3.0);  // queued behind p1
    EXPECT_DOUBLE_EQ(ch.busy_seconds(), 3.0);
    EXPECT_EQ(ch.counters().total_bytes(), 300u);
}

TEST(Channel, ReadyTimeDelaysStart)
{
    sim::EventQueue q;
    sim::Channel ch(q, 100.0, "test");
    sim::Packet p{1, sim::PacketKind::kResultC, {}, 100};
    EXPECT_DOUBLE_EQ(ch.transfer(5.0, p).end, 6.0);
}

TEST(Simulate, ConstantBandwidthProperty)
{
    // THE paper result (Figs. 10a/12a): as p grows, CAKE's average DRAM
    // bandwidth stays roughly flat while throughput grows.
    const MachineSpec amd = amd_ryzen_5950x();
    const GemmShape shape{4608, 4608, 4608};

    std::vector<double> bw, gflops;
    for (int p : {1, 4, 8, 16}) {
        sim::SimConfig config;
        config.machine = amd;
        config.p = p;
        config.shape = shape;
        const auto r = sim::simulate(config);
        bw.push_back(r.avg_dram_bw_gbs);
        gflops.push_back(r.gflops);
    }
    EXPECT_GT(gflops.back(), 6.0 * gflops.front()) << "throughput scales";
    EXPECT_LT(bw.back(), 3.0 * bw.front()) << "DRAM bandwidth near-constant";
    EXPECT_LT(bw.back(), amd.dram_bw_gbs) << "never exceeds machine DRAM BW";
}

TEST(Simulate, GotoBandwidthGrowsWithCores)
{
    const MachineSpec amd = amd_ryzen_5950x();
    const GemmShape shape{4608, 4608, 4608};
    std::vector<double> bw;
    for (int p : {1, 8}) {
        sim::SimConfig config;
        config.machine = amd;
        config.p = p;
        config.shape = shape;
        config.algorithm = sim::Algorithm::kGoto;
        bw.push_back(sim::simulate(config).avg_dram_bw_gbs);
    }
    EXPECT_GT(bw[1], 2.0 * bw[0]);
}

TEST(Simulate, ArmGotoSaturatesDram)
{
    // Fig. 11: ARMPL (GOTO) hits the 2 GB/s wall; CAKE outperforms it.
    const MachineSpec arm = arm_cortex_a53();
    const GemmShape shape{3000, 3000, 3000};
    sim::SimConfig cake_cfg;
    cake_cfg.machine = arm;
    cake_cfg.p = 4;
    cake_cfg.shape = shape;
    const auto cake = sim::simulate(cake_cfg);

    sim::SimConfig goto_cfg = cake_cfg;
    goto_cfg.algorithm = sim::Algorithm::kGoto;
    const auto gto = sim::simulate(goto_cfg);

    EXPECT_GT(cake.gflops, gto.gflops);
    EXPECT_GT(gto.dram_busy_frac, 0.9) << "GOTO pinned on the DRAM channel";
}

TEST(Simulate, PacketAccountingConsistent)
{
    const MachineSpec intel = intel_i9_10900k();
    sim::SimConfig config;
    config.machine = intel;
    config.p = 4;
    config.shape = {2304, 2304, 2304};
    const auto r = sim::simulate(config);

    // Result-C packets carry exactly the output matrix once (K-first).
    const auto c_idx = static_cast<std::size_t>(sim::PacketKind::kResultC);
    EXPECT_EQ(r.packets.bytes[c_idx],
              static_cast<std::uint64_t>(2304) * 2304 * sizeof(float));
    // No partial-C spills under the serpentine schedule.
    const auto partial_idx =
        static_cast<std::size_t>(sim::PacketKind::kPartialC);
    EXPECT_EQ(r.packets.count[partial_idx], 0u);
    EXPECT_GT(r.steps, 0);
    EXPECT_GT(r.core_busy_frac, 0.0);
    EXPECT_LE(r.core_busy_frac, 1.0 + 1e-9);
}

TEST(Simulate, ThroughputNeverExceedsPeak)
{
    for (const MachineSpec& m : table2_machines()) {
        sim::SimConfig config;
        config.machine = m;
        config.p = m.cores;
        config.shape = {2304, 2304, 2304};
        const auto r = sim::simulate(config);
        EXPECT_LE(r.gflops, m.peak_gflops(m.cores) * (1 + 1e-9)) << m.name;
        EXPECT_LE(r.avg_dram_bw_gbs, m.dram_bw_gbs * (1 + 1e-9)) << m.name;
    }
}

/// Whether any A/B surface fetch overlaps a compute slice of its tenant.
bool surface_fetch_overlaps_compute(const sim::Timeline& timeline)
{
    for (const sim::Slice& f : timeline.slices()) {
        if (f.kind != sim::SliceKind::kFetch
            || (f.packet != sim::PacketKind::kSurfaceA
                && f.packet != sim::PacketKind::kSurfaceB)) {
            continue;
        }
        for (const sim::Slice& c : timeline.slices()) {
            if (c.kind == sim::SliceKind::kCompute && c.tenant == f.tenant
                && f.start < c.end && c.start < f.end) {
                return true;
            }
        }
    }
    return false;
}

TEST(Simulate, PhasesFollowEachPlansOverlap)
{
    // The simulator steps through the plan's phases: GOTO's plan packs
    // overlap off, so its surface fetches sit between computes; CAKE's
    // packs step t + 1 beside compute(t).
    for (const sim::Algorithm algo :
         {sim::Algorithm::kGoto, sim::Algorithm::kCake}) {
        sim::Timeline timeline;
        sim::SimConfig config;
        config.machine = intel_i9_10900k();
        config.p = 10;
        config.shape = {2000, 2000, 2000};
        config.algorithm = algo;
        config.timeline = &timeline;
        sim::simulate(config);
        EXPECT_EQ(surface_fetch_overlaps_compute(timeline),
                  algo == sim::Algorithm::kCake);
    }
}

TEST(Validate, ScheduleNumericsAllKinds)
{
    // The paper built its simulator to "validate the correctness of the CB
    // block design and execution schedule": any missed/duplicated block
    // shows up as numerical error here.
    CbBlockParams params;
    params.p = 2;
    params.mr = 6;
    params.nr = 16;
    params.mc = params.kc = 18;
    params.alpha = 1.0;
    params.m_blk = 36;
    params.k_blk = 18;
    params.n_blk = 48;
    const GemmShape shape{100, 130, 75};
    for (ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        const double err = sim::validate_schedule_numerics(shape, params, kind);
        EXPECT_LE(err, gemm_tolerance(shape.k)) << schedule_kind_name(kind);
    }
}

TEST(PacketKinds, Names)
{
    EXPECT_STREQ(sim::packet_kind_name(sim::PacketKind::kSurfaceA),
                 "surface-A");
    EXPECT_STREQ(sim::packet_kind_name(sim::PacketKind::kResultC),
                 "result-C");
}

}  // namespace
}  // namespace cake
