// Block-plan tests: the phase list and work items build_block_plan
// resolves (the executor and the schedule-IR extractor both run them),
// read directly, and block_order's grid and §2.2 orientation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <tuple>
#include <vector>

#include "core/block_plan.hpp"
#include "core/schedule.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

/// Blocks of 30 x 144 x 32 on a 6 x 16 kernel: a full block packs 5 A
/// slivers (2 pack-A items) and 9 B slivers (2 pack-B items).
CbBlockParams grid_params()
{
    CbBlockParams params;
    params.mr = 6;
    params.nr = 16;
    params.mc = params.kc = 30;
    params.m_blk = 30;
    params.n_blk = 144;
    params.k_blk = 32;
    return params;
}

/// A 3 x 2 x 3 grid with an edge block in every dimension.
constexpr GemmShape kGridShape{67, 164, 69};

/// (schedule, double_buffer, prepacked B)
using PlanConfig = std::tuple<ScheduleKind, bool, bool>;

class BlockPlanTest : public ::testing::TestWithParam<PlanConfig> {
protected:
    [[nodiscard]] BlockPlan plan() const
    {
        const auto [kind, double_buffer, prepacked] = GetParam();
        BlockPlanInputs in = plan_inputs(kGridShape, grid_params(), kind);
        in.double_buffer = double_buffer;
        in.use_prepacked = prepacked;
        return build_block_plan(
            block_order(kind, kGridShape, grid_params()), in);
    }
};

TEST_P(BlockPlanTest, GridIsThreeByTwoByThree)
{
    const BlockPlan p = plan();
    EXPECT_EQ(p.steps.size(), 18u);
    EXPECT_EQ(p.stats.blocks_executed, 18);
}

TEST_P(BlockPlanTest, FillPacksStepZeroAndComputesNothing)
{
    const BlockPlan p = plan();
    ASSERT_FALSE(p.phases.empty());
    EXPECT_EQ(p.phases[0].pack, 0);
    EXPECT_EQ(p.phases[0].compute, -1);
    EXPECT_TRUE(p.steps[0].pack_a);
}

TEST_P(BlockPlanTest, EveryStepIsComputedOnceInOrder)
{
    const BlockPlan p = plan();
    std::vector<index_t> computed;
    for (const BlockPhase& ph : p.phases) {
        if (ph.compute >= 0) computed.push_back(ph.compute);
    }
    ASSERT_EQ(computed.size(), p.steps.size());
    for (std::size_t t = 0; t < computed.size(); ++t) {
        EXPECT_EQ(computed[t], static_cast<index_t>(t));
    }
}

TEST_P(BlockPlanTest, PhasesFollowTheOverlapMode)
{
    const bool double_buffer = std::get<1>(GetParam());
    const BlockPlan p = plan();
    const auto steps = static_cast<index_t>(p.steps.size());
    if (double_buffer) {
        // Overlap on: the phase that computes t packs t + 1.
        ASSERT_EQ(static_cast<index_t>(p.phases.size()), 1 + steps);
        for (index_t t = 0; t < steps; ++t) {
            const BlockPhase& ph =
                p.phases[static_cast<std::size_t>(t + 1)];
            EXPECT_EQ(ph.compute, t);
            EXPECT_EQ(ph.pack, t + 1 < steps ? t + 1 : -1);
        }
        return;
    }
    // Overlap off: a pack-only phase comes before step t > 0 exactly when
    // that step fetches, and no compute phase packs.
    std::size_t q = 1;
    for (index_t t = 0; t < steps; ++t) {
        const BlockStep& st = p.steps[static_cast<std::size_t>(t)];
        if (t > 0 && (st.pack_a || st.pack_b)) {
            ASSERT_LT(q, p.phases.size());
            EXPECT_EQ(p.phases[q].pack, t);
            EXPECT_EQ(p.phases[q].compute, -1);
            ++q;
        }
        ASSERT_LT(q, p.phases.size());
        EXPECT_EQ(p.phases[q].pack, -1);
        EXPECT_EQ(p.phases[q].compute, t);
        ++q;
    }
    EXPECT_EQ(q, p.phases.size());
}

TEST_P(BlockPlanTest, ItemCountsFollowThePackGroups)
{
    const bool prepacked = std::get<2>(GetParam());
    const CbBlockParams params = grid_params();
    const BlockPlan p = plan();
    for (const BlockStep& st : p.steps) {
        const index_t a_slivers = ceil_div(st.mi, params.mr);
        const index_t b_slivers = ceil_div(st.ni, params.nr);
        EXPECT_EQ(st.bands, a_slivers);
        EXPECT_EQ(st.a_items,
                  st.pack_a ? ceil_div(a_slivers, kPackAGroup) : 0);
        EXPECT_EQ(st.b_items,
                  st.pack_b ? ceil_div(b_slivers, kPackBGroup) : 0);
        if (prepacked) {
            EXPECT_EQ(st.b_items, 0);
        }
        // The grid's full and edge blocks: 5 or 2 A slivers, 9 or 2 B.
        EXPECT_EQ(st.bands, st.mi == 30 ? 5 : 2);
        if (st.pack_a) {
            EXPECT_EQ(st.a_items, st.mi == 30 ? 2 : 1);
        }
        if (st.pack_b) {
            EXPECT_EQ(st.b_items, st.ni == 144 ? 2 : 1);
        }
    }
}

std::string plan_config_name(
    const ::testing::TestParamInfo<PlanConfig>& info)
{
    const auto [kind, double_buffer, prepacked] = info.param;
    std::string name = schedule_kind_name(kind);
    name += double_buffer ? "_overlap" : "_serial";
    name += prepacked ? "_prepacked" : "_plain";
    std::replace_if(
        name.begin(), name.end(),
        [](char ch) {
            return std::isalnum(static_cast<unsigned char>(ch)) == 0;
        },
        '_');
    return name;
}

INSTANTIATE_TEST_SUITE_P(EveryScheduleAndMode, BlockPlanTest,
                         ::testing::Combine(
                             ::testing::ValuesIn(all_schedule_kinds()),
                             ::testing::Bool(), ::testing::Bool()),
                         plan_config_name);

TEST(BlockOrder, EqualsBuildScheduleWithTheExplicitFlag)
{
    // n > m runs N outermost, n < m M outermost, and a tie N outermost.
    const CbBlockParams params = grid_params();
    const GemmShape shapes[] = {
        {67, 164, 69}, {400, 300, 69}, {300, 300, 69}};
    for (const ScheduleKind kind : all_schedule_kinds()) {
        for (const GemmShape& s : shapes) {
            const index_t mb = ceil_div(s.m, params.m_blk);
            const index_t nb = ceil_div(s.n, params.n_blk);
            const index_t kb = ceil_div(s.k, params.k_blk);
            EXPECT_EQ(block_order(kind, s, params),
                      build_schedule(kind, mb, nb, kb, s.n >= s.m))
                << schedule_kind_name(kind) << " " << s.m << "x" << s.n;
            EXPECT_EQ(
                block_order(kind, s, params, 2),
                build_layered_schedule(kind, mb, nb, kb, 2, s.n >= s.m))
                << schedule_kind_name(kind) << " " << s.m << "x" << s.n;
        }
    }
    // The orientation matters: M > N does not run N outermost.
    EXPECT_NE(
        block_order(ScheduleKind::kKFirstSerpentine, shapes[1], params),
        build_schedule(ScheduleKind::kKFirstSerpentine, 14, 3, 3,
                       /*n_outermost=*/true));
}

TEST(BlockOrder, DegenerateInputsGetOneBlock)
{
    // k = 0, or unset m and n block extents: one well-formed block.
    const std::vector<BlockCoord> one{{0, 0, 0}};
    EXPECT_EQ(block_order(ScheduleKind::kKFirstSerpentine, {4, 5, 0},
                          grid_params()),
              one);
    EXPECT_EQ(block_order(ScheduleKind::kGoto, {40, 50, 0},
                          CbBlockParams{.k_blk = 8}),
              one);
}

}  // namespace
}  // namespace cake
