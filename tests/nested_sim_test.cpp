// Tests for the nested multi-level CB analysis and sim-vs-model
// cross-validation.
#include <gtest/gtest.h>

#include "model/analysis.hpp"
#include "model/nested.hpp"
#include "model/throughput.hpp"
#include "sim/machine_sim.hpp"

namespace cake {
namespace {

// ---------------------------------------------------------------- nested

TEST(Nested, SingleLevelMatchesFlatEquations)
{
    const auto a = model::analyze_nested({{4, 8, 2}});
    ASSERT_EQ(a.levels.size(), 1u);
    EXPECT_TRUE(a.feasible);
    EXPECT_DOUBLE_EQ(a.levels[0].bw_demand_up,
                     model::bw_min_tiles_per_cycle(2, 8));
    EXPECT_DOUBLE_EQ(a.levels[0].mem_required,
                     model::mem_internal_tiles(2, 4, 8));
    EXPECT_DOUBLE_EQ(a.total_cores, 4 * 8 * 8);
}

TEST(Nested, TwoLevelChainingFeasibility)
{
    // Outer level {p=4, k=4, alpha=1}: Eq. 3 supply = 2*4 + 2*4*4 = 40
    // tiles/cycle over 64 compute slots = 0.625 per slot per tile-op.
    //
    // An inner block at alpha = 1 demands 1 input tile per tile-op
    // (Eq. 2 / inner cores = 2k/k^2... = 1 at k=2): INFEASIBLE — the
    // paper's alpha lever must also be pulled at the inner level.
    const auto tight = model::analyze_nested({{4, 4, 1}, {1, 2, 1}});
    EXPECT_FALSE(tight.feasible) << "inner alpha=1 demands 1.0 > 0.625";

    // Stretching the inner block to alpha = 8 drops its per-slot demand to
    // ((8+1)/8)*2 / 4 = 0.5625 <= 0.625: feasible.
    const auto stretched = model::analyze_nested({{4, 4, 1}, {1, 2, 8}});
    EXPECT_TRUE(stretched.feasible);

    // A single-slot outer is always generous (supply >= 3 per slot).
    const auto single = model::analyze_nested({{1, 1, 1}, {1, 64, 1}});
    EXPECT_TRUE(single.feasible);

    // Spreading the outer thin (supply 20/16 = 1.25 per slot) cannot feed
    // an inner block demanding 2 per slot.
    const auto spread = model::analyze_nested({{4, 2, 1}, {1, 1, 1}});
    EXPECT_FALSE(spread.feasible);
}

TEST(Nested, IntensityGrowsWithOuterP)
{
    const auto small = model::analyze_nested({{1, 4, 1}});
    const auto big = model::analyze_nested({{8, 4, 1}});
    EXPECT_GT(big.net_arithmetic_intensity,
              small.net_arithmetic_intensity);
}

// ------------------------------------------------- sim vs model agreement

TEST(SimVsModel, ThroughputPredictionsAgree)
{
    // The discrete-event simulator and the closed-form predictor share
    // resource assumptions; on steady-state problems they must agree to
    // within pipeline warm-up effects (~15%).
    for (const MachineSpec& m : table2_machines()) {
        const index_t size = m.dram_gib < 2 ? 768 : 4608;
        const GemmShape shape{size, size, size};
        const int p = m.cores;

        sim::SimConfig config;
        config.machine = m;
        config.p = p;
        config.shape = shape;
        const auto sim_result = sim::simulate(config);
        const auto predicted = model::predict_cake(m, p, shape);

        EXPECT_NEAR(sim_result.gflops, predicted.gflops,
                    0.15 * predicted.gflops)
            << m.name;
    }
}

TEST(SimVsModel, DramTrafficIdentical)
{
    // Packets in the simulator carry exactly the bytes the traffic model
    // tallies (both read the executor's plan), for every schedule kind, on
    // a square shape and on a one-band shape (m <= m_blk), where GOTO's
    // carry-over rule differs most from the plain sharing rule.
    const MachineSpec intel = intel_i9_10900k();
    for (const GemmShape& shape :
         {GemmShape{2304, 2304, 2304}, GemmShape{64, 2304, 2304}}) {
        for (const ScheduleKind kind : all_schedule_kinds()) {
            sim::SimConfig config;
            config.machine = intel;
            config.p = 4;
            config.shape = shape;
            config.schedule = kind;
            const auto sim_result = sim::simulate(config);
            const auto traffic =
                model::cake_traffic(shape, sim_result.params, kind);
            EXPECT_EQ(sim_result.dram_bytes, traffic.total_bytes())
                << schedule_kind_name(kind) << " " << shape.m << "x"
                << shape.n << "x" << shape.k;
        }
    }
}

}  // namespace
}  // namespace cake
