// Analytical-model tests: the paper's Eqs. 1-6, traffic walkers, the
// prediction engine, and the extrapolation protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "machine/machine.hpp"
#include "model/analysis.hpp"
#include "model/extrapolate.hpp"
#include "model/planner.hpp"
#include "model/throughput.hpp"

namespace cake {
namespace {

TEST(Equations, Eq1InternalMemory)
{
    // alpha=1, p=1, k=1: 1 + 1 + 1 = 3 surfaces of one tile each.
    EXPECT_DOUBLE_EQ(model::mem_internal_tiles(1, 1, 1), 3.0);
    // Quadratic growth in p (the paper's headline cost).
    const double m4 = model::mem_internal_tiles(1, 4, 8);
    const double m8 = model::mem_internal_tiles(1, 8, 8);
    EXPECT_GT(m8 / m4, 3.0);  // dominated by the p^2 term
    EXPECT_LT(m8 / m4, 4.0);
}

TEST(Equations, Eq2BandwidthFallsWithAlpha)
{
    const double k = 16;
    EXPECT_DOUBLE_EQ(model::bw_min_tiles_per_cycle(1, k), 2 * k);
    EXPECT_GT(model::bw_min_tiles_per_cycle(1, k),
              model::bw_min_tiles_per_cycle(2, k));
    // alpha -> infinity approaches k.
    EXPECT_NEAR(model::bw_min_tiles_per_cycle(1e9, k), k, 1e-6);
}

TEST(Equations, AlphaFromRatio)
{
    // R = 2 -> alpha = 1; R = 1.5 -> alpha = 2; R -> 1+ diverges.
    EXPECT_DOUBLE_EQ(model::alpha_from_ratio(2.0), 1.0);
    EXPECT_DOUBLE_EQ(model::alpha_from_ratio(1.5), 2.0);
    EXPECT_THROW(model::alpha_from_ratio(1.0), Error);
}

TEST(Equations, Eq3InternalBandwidthGrowsLinearlyInP)
{
    const double k = 8, alpha = 1;
    const double b1 = model::bw_internal_tiles_per_cycle(alpha, 1, k);
    const double b2 = model::bw_internal_tiles_per_cycle(alpha, 2, k);
    const double b3 = model::bw_internal_tiles_per_cycle(alpha, 3, k);
    EXPECT_DOUBLE_EQ(b2 - b1, 2 * k);  // the 2pk term
    EXPECT_DOUBLE_EQ(b3 - b2, 2 * k);
}

TEST(Equations, GotoBandwidthGrowsWithP_CakeDoesNot)
{
    // The paper's central contrast (§4.1 vs §4.2 / Eq. 4).
    const double mr = 6, nr = 16, kc = 96, nc = 4096;
    const double goto1 = model::goto_ext_bw(1, kc, nc, mr, nr);
    const double goto8 = model::goto_ext_bw(8, kc, nc, mr, nr);
    EXPECT_GT(goto8, 4 * goto1);  // ~linear growth

    const double cake1 = model::cake_ext_bw(1.0, mr, nr);
    EXPECT_DOUBLE_EQ(cake1, 2 * mr * nr);
    // Eq. 4 has no p in it at all: constant bandwidth by construction.
}

TEST(Equations, Eq5Eq6)
{
    EXPECT_DOUBLE_EQ(model::cake_local_mem(2, 10, 10, 1.0),
                     2 * 10 * 10 * 2.0 + 1.0 * 4 * 100);
    EXPECT_DOUBLE_EQ(model::cake_int_bw(4, 1.0, 6, 16), (8 + 1 + 1) * 96);
    // Internal bandwidth grows ~linearly with p (Eq. 6).
    const double d = model::cake_int_bw(5, 1, 6, 16)
        - model::cake_int_bw(4, 1, 6, 16);
    EXPECT_DOUBLE_EQ(d, 2 * 96);
}

TEST(Equations, ArithmeticIntensity)
{
    // Cube block: AI = n/2 for m=k=n.
    EXPECT_DOUBLE_EQ(model::cb_arithmetic_intensity(8, 8, 8), 4.0);
    // Stretching n raises AI toward k (Fig. 4).
    EXPECT_GT(model::cb_arithmetic_intensity(8, 8, 32),
              model::cb_arithmetic_intensity(8, 8, 8));
}

TEST(Traffic, CakeWalkerMatchesHandCase)
{
    // One CB block covering the whole problem: read A + B, write C once.
    CbBlockParams params;
    params.p = 1;
    params.mr = 6;
    params.nr = 16;
    params.mc = params.kc = 64;
    params.alpha = 1.0;
    params.m_blk = 64;
    params.k_blk = 64;
    params.n_blk = 64;
    const GemmShape shape{64, 64, 64};
    const auto t = model::cake_traffic(shape, params);
    EXPECT_EQ(t.a_packs, 1);
    EXPECT_EQ(t.b_packs, 1);
    EXPECT_EQ(t.c_flushes, 1);
    EXPECT_EQ(t.dram_read_bytes, 2u * 64 * 64 * sizeof(float));
    EXPECT_EQ(t.dram_write_bytes, 1u * 64 * 64 * sizeof(float));
}

TEST(Traffic, CakeWritesCExactlyOnce)
{
    CbBlockParams params;
    params.p = 2;
    params.mr = 6;
    params.nr = 16;
    params.mc = params.kc = 32;
    params.alpha = 1.0;
    params.m_blk = 64;
    params.k_blk = 32;
    params.n_blk = 64;
    const GemmShape shape{200, 300, 150};
    const auto t = model::cake_traffic(shape, params);
    EXPECT_EQ(t.dram_write_bytes,
              static_cast<std::uint64_t>(200) * 300 * sizeof(float));
}

TEST(Traffic, GotoCTrafficScalesWithKPasses)
{
    // The GOTO plan at p = 1: mc x kc x nc blocks with mc = kc.
    auto goto_params = [](index_t kc, index_t nc) {
        CbBlockParams params;
        params.p = 1;
        params.mr = 6;
        params.nr = 16;
        params.mc = params.kc = kc;
        params.m_blk = params.k_blk = kc;
        params.n_blk = nc;
        return params;
    };
    const GemmShape shape{512, 512, 512};
    const auto few = model::cake_traffic(shape, goto_params(256, 512),
                                         ScheduleKind::kGoto);
    const auto many = model::cake_traffic(shape, goto_params(64, 512),
                                          ScheduleKind::kGoto);
    EXPECT_EQ(few.dram_write_bytes,
              static_cast<std::uint64_t>(512) * 512 * 2 * sizeof(float));
    EXPECT_EQ(many.dram_write_bytes,
              static_cast<std::uint64_t>(512) * 512 * 8 * sizeof(float));
    EXPECT_GT(many.dram_read_bytes, few.dram_read_bytes);
}

TEST(Traffic, CakeBeatsGotoOnDramBytes)
{
    // The headline: for a large square MM, CAKE moves far less external
    // data than GOTO at the same kernel shape.
    const MachineSpec intel = intel_i9_10900k();
    const GemmShape shape{4608, 4608, 4608};
    const auto params = compute_cb_block(intel, 10, 6, 16);
    const auto cake = model::cake_traffic(shape, params);
    const auto gto = model::cake_traffic(
        shape, goto_plan_params(intel, 10, 6, 16), ScheduleKind::kGoto);
    EXPECT_LT(cake.total_bytes(), gto.total_bytes());
}

/// One Table-2 row of bench_roofline: whole-problem arithmetic intensity
/// (flops / modelled DRAM bytes) of GOTO and CAKE at the 6x16 tile, and
/// the attainable rate min(peak, AI * DRAM bandwidth).
struct RooflinePin {
    const char* machine;
    double peak_gflops;
    double dram_gbs;
    double ridge_ai;
    double goto_ai;
    double goto_attainable;
    double cake_ai;
    double cake_attainable;
};

TEST(Roofline, Table2OperatingPointsArePinned)
{
    // The model is pure arithmetic over MachineSpec constants, so these
    // points are the same on every host. Values carry bench_roofline's
    // four significant digits, hence the 0.1% relative tolerance.
    constexpr RooflinePin kPins[] = {
        {"Intel i9-10900K", 1250, 40, 31.25, 44.82, 1250, 428.3, 1250},
        {"AMD Ryzen 9 5950X", 1200, 47, 25.53, 62.27, 1200, 769.8, 1200},
        {"ARM Cortex-A53", 10.8, 2, 5.4, 10.27, 10.8, 40.74, 10.8},
    };
    auto near = [](double got, double want, const char* what,
                   const char* machine) {
        EXPECT_NEAR(got, want, 1e-3 * want) << machine << " " << what;
    };
    const std::vector<MachineSpec> machines = table2_machines();
    ASSERT_EQ(machines.size(), std::size(kPins));
    for (const RooflinePin& pin : kPins) {
        const auto it = std::find_if(
            machines.begin(), machines.end(),
            [&](const MachineSpec& m) { return m.name == pin.machine; });
        ASSERT_NE(it, machines.end()) << pin.machine;
        const MachineSpec& m = *it;
        // bench_roofline's problem size: DRAM-resident on every machine.
        const index_t size = m.dram_gib < 2 ? 3000 : 23040;
        const GemmShape shape{size, size, size};
        const double goto_ai =
            shape.flops()
            / static_cast<double>(
                model::cake_traffic(shape,
                                    goto_plan_params(m, m.cores, 6, 16),
                                    ScheduleKind::kGoto)
                    .total_bytes());
        const double cake_ai =
            shape.flops()
            / static_cast<double>(
                model::cake_traffic(shape,
                                    compute_cb_block(m, m.cores, 6, 16))
                    .total_bytes());
        const double peak = m.peak_gflops(m.cores);
        near(peak, pin.peak_gflops, "peak", pin.machine);
        near(m.dram_bw_gbs, pin.dram_gbs, "dram", pin.machine);
        near(peak / m.dram_bw_gbs, pin.ridge_ai, "ridge", pin.machine);
        near(goto_ai, pin.goto_ai, "goto_ai", pin.machine);
        near(std::min(peak, goto_ai * m.dram_bw_gbs), pin.goto_attainable,
             "goto_attainable", pin.machine);
        near(cake_ai, pin.cake_ai, "cake_ai", pin.machine);
        near(std::min(peak, cake_ai * m.dram_bw_gbs), pin.cake_attainable,
             "cake_attainable", pin.machine);
    }
}

TEST(Predict, CakeDramBandwidthConstantInP)
{
    // Fig. 10a / 12a shape: CAKE's average DRAM bandwidth stays flat as
    // cores increase, while GOTO's rises.
    const MachineSpec amd = amd_ryzen_5950x();
    const GemmShape shape{4608, 4608, 4608};
    const double bw2 = model::predict_cake(amd, 2, shape).avg_dram_bw_gbs;
    const double bw16 = model::predict_cake(amd, 16, shape).avg_dram_bw_gbs;
    EXPECT_LT(bw16, 3.0 * bw2) << "CAKE DRAM BW must stay near-constant";

    const double gbw2 = model::predict_goto(amd, 2, shape).avg_dram_bw_gbs;
    const double gbw16 = model::predict_goto(amd, 16, shape).avg_dram_bw_gbs;
    EXPECT_GT(gbw16, 3.0 * gbw2) << "GOTO DRAM BW must grow with cores";
}

TEST(Predict, ArmGotoIsDramBound)
{
    // Fig. 11: on the A53's 2 GB/s DRAM, GOTO saturates external
    // bandwidth and stops scaling; CAKE keeps scaling.
    const MachineSpec arm = arm_cortex_a53();
    const GemmShape shape{3000, 3000, 3000};
    const auto goto4 = model::predict_goto(arm, 4, shape);
    EXPECT_EQ(goto4.bound, "dram");
    const auto cake4 = model::predict_cake(arm, 4, shape);
    EXPECT_GT(cake4.gflops, goto4.gflops);
}

TEST(Predict, CakeThroughputScalesWithCores)
{
    const MachineSpec amd = amd_ryzen_5950x();
    const GemmShape shape{4608, 4608, 4608};
    const double g1 = model::predict_cake(amd, 1, shape).gflops;
    const double g8 = model::predict_cake(amd, 8, shape).gflops;
    EXPECT_GT(g8, 6.0 * g1);  // near-linear scaling on the rich machine
}

TEST(Predict, SmallProblemsFavourCake)
{
    // Fig. 8: low arithmetic intensity (small K) makes GOTO DRAM-bound;
    // CAKE's relative advantage grows.
    const MachineSpec intel = intel_i9_10900k();
    const GemmShape small{2000, 2000, 250};
    const GemmShape large{8000, 8000, 8000};
    const double ratio_small =
        model::predict_cake(intel, 10, small).gflops
        / model::predict_goto(intel, 10, small).gflops;
    const double ratio_large =
        model::predict_cake(intel, 10, large).gflops
        / model::predict_goto(intel, 10, large).gflops;
    EXPECT_GE(ratio_small, ratio_large);
    EXPECT_GE(ratio_small, 1.0);
}

TEST(Extrapolate, PreservesMeasuredPrefix)
{
    const std::vector<double> measured = {10, 20, 30};
    const auto out = model::extrapolate_series(measured, 6);
    ASSERT_EQ(out.size(), 6u);
    EXPECT_DOUBLE_EQ(out[0], 10);
    EXPECT_DOUBLE_EQ(out[2], 30);
    EXPECT_DOUBLE_EQ(out[5], 60);  // line through (2,20),(3,30)
}

TEST(Extrapolate, TruncatesWhenTargetSmaller)
{
    const auto out = model::extrapolate_series({1, 2, 3, 4}, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[1], 2);
}

TEST(Extrapolate, MachineScalesLlcQuadratically)
{
    const MachineSpec base = intel_i9_10900k();
    const MachineSpec big = model::extrapolated_machine(base, 20);
    EXPECT_EQ(big.cores, 20);
    EXPECT_EQ(big.llc_bytes(), base.llc_bytes() * 4);
    EXPECT_DOUBLE_EQ(big.dram_bw_gbs, base.dram_bw_gbs) << "DRAM fixed";
    EXPECT_GT(big.internal_bw_at(20), base.internal_bw_at(10));
    // Private caches unchanged.
    EXPECT_EQ(big.caches.level(2)->size_bytes,
              base.caches.level(2)->size_bytes);
}

// ---- Schedule decision rule (DESIGN.md §13) -----------------------------

TEST(ScheduleDecision, TrafficTableCoversRegistryRankedAscending)
{
    const MachineSpec machine = intel_i9_10900k();
    const GemmShape shape{2000, 2000, 2000};
    const CbBlockParams params =
        compute_cb_block(machine, machine.cores, 6, 16, {});
    const auto table = model::schedule_traffic_table(shape, params);
    // One row per registry entry: a kind missing from this consumer (the
    // tuner's stage-2 source and recommend_schedule's evidence) fails.
    ASSERT_EQ(table.size(), all_schedule_kinds().size());
    std::set<ScheduleKind> seen;
    for (const auto& row : table) seen.insert(row.schedule);
    EXPECT_EQ(seen.size(), all_schedule_kinds().size());
    for (std::size_t i = 1; i < table.size(); ++i) {
        EXPECT_LE(table[i - 1].dram_bytes, table[i].dram_bytes);
    }
    // The fully-sharing kinds never spill partial C; the ablations pay.
    for (const auto& row : table) {
        if (row.schedule == ScheduleKind::kKFirstSerpentine
            || row.schedule == ScheduleKind::kHilbert) {
            EXPECT_EQ(row.c_spills, 0) << schedule_kind_name(row.schedule);
        }
    }
    EXPECT_EQ(model::recommend_schedule(shape, params),
              table.front().schedule);
}

TEST(ScheduleDecision, PlanCarriesRecommendedSchedule)
{
    const model::CakePlan plan =
        model::make_plan(intel_i9_10900k(), 10, GemmShape{2000, 2000, 2000});
    EXPECT_EQ(plan.schedule,
              model::recommend_schedule(GemmShape{2000, 2000, 2000},
                                        plan.params));
    // The recommendation never loses to the paper default on its own
    // evidence: its modelled traffic is minimal over the registry.
    const auto table =
        model::schedule_traffic_table({2000, 2000, 2000}, plan.params);
    for (const auto& row : table) {
        EXPECT_GE(row.dram_bytes, table.front().dram_bytes);
    }
}

}  // namespace
}  // namespace cake
