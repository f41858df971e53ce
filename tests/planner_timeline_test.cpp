// Tests for the planner API and the simulation timeline / Chrome-trace
// exporter.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "model/planner.hpp"
#include "sim/machine_sim.hpp"

namespace cake {
namespace {

// -------------------------------------------------------------- planner

TEST(Planner, PlanCarriesPredictionAndSummary)
{
    const auto plan =
        model::make_plan(intel_i9_10900k(), 4, GemmShape{2048, 2048, 2048});
    EXPECT_EQ(plan.cores, 4);
    EXPECT_GT(plan.prediction.gflops, 0);
    EXPECT_GE(plan.speedup_vs_1core, 1.0);
    EXPECT_NE(plan.summary.find("CB block"), std::string::npos);
    EXPECT_NE(plan.summary.find("GFLOP/s"), std::string::npos);
}

TEST(Planner, RecommendUsesAllCoresOnRichMachine)
{
    const auto plan = model::recommend_plan(amd_ryzen_5950x(),
                                            GemmShape{8192, 8192, 8192});
    EXPECT_EQ(plan.cores, 16) << "nothing constrains the 5950X";
}

TEST(Planner, DramStarvationDoesNotStopScaling)
{
    // Even with DRAM strangled 100x, more cores still pay off for CAKE:
    // the solver answers with bigger blocks whose arithmetic intensity
    // rises, so traffic per FLOP falls — the constant-bandwidth property.
    MachineSpec strangled = arm_cortex_a53();
    strangled.dram_bw_gbs = 0.02;
    strangled.dram_rmw_bw_gbs = 0.02;
    const auto plan =
        model::recommend_plan(strangled, GemmShape{1024, 1024, 1024});
    EXPECT_EQ(plan.cores, 4);
}

TEST(Planner, RecommendStopsEarlyWhenInternalBound)
{
    // What DOES stop CAKE's scaling (paper §4.4): a flat internal
    // (LLC <-> cores) bandwidth curve. With internal BW pinned at 2 GB/s
    // regardless of p, extra cores add nothing and the planner must not
    // burn them.
    MachineSpec flat = arm_cortex_a53();
    flat.internal_bw_gbs = {2.0, 2.0, 2.0, 2.0};
    // Beyond 2 cores the gain is ~1-2% block-edge noise; a 5% tolerance
    // band must settle on 2 cores with the internal channel binding.
    const auto plan = model::recommend_plan(
        flat, GemmShape{1024, 1024, 1024}, {}, /*tolerance=*/0.05);
    EXPECT_EQ(plan.cores, 2);
    EXPECT_EQ(plan.prediction.bound, "internal");
}

// ------------------------------------------------------------- timeline

TEST(Timeline, RecordsAndExportsChromeTrace)
{
    sim::Timeline timeline;
    sim::SimConfig config;
    config.machine = arm_cortex_a53();
    config.p = 2;
    config.shape = {256, 256, 256};
    config.timeline = &timeline;
    const auto result = sim::simulate(config);

    ASSERT_FALSE(timeline.empty());
    // One compute slice per pipeline step.
    index_t computes = 0;
    for (const auto& s : timeline.slices()) {
        EXPECT_GE(s.end, s.start);
        if (s.kind == sim::SliceKind::kCompute) ++computes;
    }
    EXPECT_EQ(computes, result.steps);
    EXPECT_NEAR(timeline.span(), result.seconds, result.seconds * 0.01);

    std::ostringstream os;
    timeline.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
    EXPECT_NE(json.find("fetch surface-A"), std::string::npos);
    // Slice count == JSON event count.
    std::size_t events = 0;
    for (std::size_t pos = json.find("\"ph\""); pos != std::string::npos;
         pos = json.find("\"ph\"", pos + 1))
        ++events;
    EXPECT_EQ(events, timeline.slices().size());
}

TEST(Timeline, MultiTenantTagsTenants)
{
    sim::Timeline timeline;
    sim::SimConfig config;
    config.machine = arm_cortex_a53();
    config.p = 2;
    config.shape = {256, 256, 256};
    sim::simulate_shared_dram({config, config}, &timeline);

    bool saw0 = false, saw1 = false;
    for (const auto& s : timeline.slices()) {
        saw0 |= s.tenant == 0;
        saw1 |= s.tenant == 1;
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw1);
}

}  // namespace
}  // namespace cake
