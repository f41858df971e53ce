// Scheduler property tests: the K-first serpentine traversal (Algorithm 2)
// and its surface-sharing guarantees (§2.2).
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/schedule.hpp"
#include "test_names.hpp"

namespace cake {
namespace {

using Grid = std::tuple<index_t, index_t, index_t>;

class ScheduleGridTest : public ::testing::TestWithParam<Grid> {};

TEST_P(ScheduleGridTest, SerpentineVisitsEveryBlockExactlyOnce)
{
    const auto [mb, nb, kb] = GetParam();
    const auto order =
        build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb);
    EXPECT_EQ(static_cast<index_t>(order.size()), mb * nb * kb);
    std::set<std::tuple<index_t, index_t, index_t>> seen;
    for (const auto& c : order) {
        EXPECT_GE(c.m, 0);
        EXPECT_LT(c.m, mb);
        EXPECT_GE(c.n, 0);
        EXPECT_LT(c.n, nb);
        EXPECT_GE(c.k, 0);
        EXPECT_LT(c.k, kb);
        EXPECT_TRUE(seen.insert({c.m, c.n, c.k}).second)
            << "duplicate block (" << c.m << "," << c.n << "," << c.k << ")";
    }
}

TEST_P(ScheduleGridTest, SerpentineConsecutiveBlocksShareASurface)
{
    // The load-bearing property of §2.2: every consecutive pair of blocks
    // differs by one grid step in exactly one dimension, so at least one
    // IO surface stays in local memory across the transition.
    const auto [mb, nb, kb] = GetParam();
    const auto order =
        build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb);
    for (std::size_t i = 1; i < order.size(); ++i) {
        const auto& a = order[i - 1];
        const auto& b = order[i];
        const index_t dm = std::abs(a.m - b.m);
        const index_t dn = std::abs(a.n - b.n);
        const index_t dk = std::abs(a.k - b.k);
        EXPECT_EQ(dm + dn + dk, 1)
            << "step " << i << " jumps more than one block";
        const SurfaceSharing s = shared_surfaces(a, b);
        EXPECT_TRUE(s.a || s.b || s.c);
    }
    EXPECT_EQ(count_shared_steps(order),
              static_cast<index_t>(order.size()) - 1);
}

TEST_P(ScheduleGridTest, KRunsAreContiguousInKFirst)
{
    // For a fixed (m, n), all kb blocks execute consecutively: this is
    // what lets partial results stay in local memory until complete.
    const auto [mb, nb, kb] = GetParam();
    const auto order =
        build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb);
    std::set<std::pair<index_t, index_t>> completed;
    index_t run = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        ++run;
        const bool last_of_run = i + 1 == order.size()
            || order[i + 1].m != order[i].m || order[i + 1].n != order[i].n;
        if (last_of_run) {
            EXPECT_EQ(run, kb) << "(m,n)=(" << order[i].m << "," << order[i].n
                               << ") K run interrupted";
            EXPECT_TRUE(completed.insert({order[i].m, order[i].n}).second);
            run = 0;
        }
    }
    EXPECT_EQ(static_cast<index_t>(completed.size()), mb * nb);
}

TEST_P(ScheduleGridTest, NoFlipVisitsEveryBlockButSharesLess)
{
    const auto [mb, nb, kb] = GetParam();
    const auto flip =
        build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb);
    const auto noflip =
        build_schedule(ScheduleKind::kKFirstNoFlip, mb, nb, kb);
    EXPECT_EQ(noflip.size(), flip.size());
    EXPECT_LE(count_shared_steps(noflip), count_shared_steps(flip));
    if (mb > 1 && kb > 1) {
        // Restarting dimensions at index 0 forfeits reuse at every turn.
        EXPECT_LT(count_shared_steps(noflip), count_shared_steps(flip));
    }
    (void)nb;
}

TEST_P(ScheduleGridTest, TrafficRankingMatchesPaper)
{
    // §2.2: K-first serpentine minimises surface traffic; the no-flip
    // variant refetches at turns; N-innermost spills partial results.
    const auto [mb, nb, kb] = GetParam();
    const auto serp =
        schedule_traffic(build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb));
    const auto noflip =
        schedule_traffic(build_schedule(ScheduleKind::kKFirstNoFlip, mb, nb, kb));
    const auto ninner =
        schedule_traffic(build_schedule(ScheduleKind::kNInnermost, mb, nb, kb));

    EXPECT_EQ(serp.c_spills, 0) << "K-first never spills partial results";
    EXPECT_LE(serp.a_fetches + serp.b_fetches,
              noflip.a_fetches + noflip.b_fetches);
    if (nb > 1 && kb > 1) {
        EXPECT_GT(ninner.c_spills, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ScheduleGridTest,
    ::testing::Values(Grid{1, 1, 1}, Grid{1, 1, 5}, Grid{1, 5, 1},
                      Grid{5, 1, 1}, Grid{2, 2, 2}, Grid{3, 4, 5},
                      Grid{4, 3, 2}, Grid{7, 1, 3}, Grid{1, 7, 3},
                      Grid{6, 6, 6}),
    [](const auto& info) { return mnk_name(info.param); });

TEST(Schedule, MOutermostWhenRequested)
{
    // §2.2: when M > N, reuse A surfaces before B by making M outermost.
    const auto order = build_schedule(ScheduleKind::kKFirstSerpentine, 3, 2,
                                      2, /*n_outermost=*/false);
    // With M outermost, the first 2*2 = 4 blocks all have m == 0.
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(order[i].m, 0);
    // With N outermost instead, the first 3*2 = 6 blocks have n == 0.
    const auto order_n = build_schedule(ScheduleKind::kKFirstSerpentine, 3, 2,
                                        2, /*n_outermost=*/true);
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(order_n[i].n, 0);
}

TEST(Schedule, FirstBlockIsOrigin)
{
    const auto order = build_schedule(ScheduleKind::kKFirstSerpentine, 3, 3, 3);
    EXPECT_EQ(order.front(), (BlockCoord{0, 0, 0}));
}

TEST(Schedule, SharedSurfacesClassification)
{
    const BlockCoord a{1, 2, 3};
    const SurfaceSharing sa = shared_surfaces(a, {1, 5, 3});
    EXPECT_TRUE(sa.a);
    EXPECT_FALSE(sa.b);
    EXPECT_FALSE(sa.c);
    const SurfaceSharing sb = shared_surfaces(a, {9, 2, 3});
    EXPECT_TRUE(sb.b);
    const SurfaceSharing sc = shared_surfaces(a, {1, 2, 9});
    EXPECT_TRUE(sc.c);
}

TEST(Schedule, KindNames)
{
    EXPECT_STREQ(schedule_kind_name(ScheduleKind::kKFirstSerpentine),
                 "k-first-serpentine");
    EXPECT_STREQ(schedule_kind_name(ScheduleKind::kKFirstNoFlip),
                 "k-first-no-flip");
    EXPECT_STREQ(schedule_kind_name(ScheduleKind::kNInnermost),
                 "n-innermost");
    EXPECT_STREQ(schedule_kind_name(ScheduleKind::kHilbert), "hilbert");
    EXPECT_STREQ(schedule_kind_name(ScheduleKind::kMorton), "morton");
}

TEST(Schedule, RegistryNamesRoundTripAndAreUnique)
{
    // all_schedule_kinds() is THE registry every consumer iterates (tuner
    // stage 2, cache parsing, cake_verify sweeps): each kind's name must
    // parse back to the kind, no two kinds may share a name, and the
    // registry must contain every kind name the consumers can meet.
    const auto& kinds = all_schedule_kinds();
    EXPECT_EQ(kinds.size(), 5u);
    std::set<std::string> names;
    for (const ScheduleKind kind : kinds) {
        const char* name = schedule_kind_name(kind);
        EXPECT_STRNE(name, "unknown");
        EXPECT_TRUE(names.insert(name).second) << name << " duplicated";
        const auto parsed = parse_schedule_kind(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind) << name;
    }
    EXPECT_FALSE(parse_schedule_kind("not-a-schedule").has_value());
    EXPECT_FALSE(parse_schedule_kind("").has_value());
}

// ---- Randomised property sweep ------------------------------------------
//
// The grid instantiations above pin hand-picked shapes; this sweep draws
// random (mb, nb, kb) grids and checks the structural invariants that the
// schedule-IR verifier's exact-cover pass leans on.

/// Unshared transitions of the no-flip traversal over boustrophedon dims
/// (d0 outer, d1 middle, d2 inner) — the "dimension turns" where the
/// serpentine variant would have reversed direction instead of jumping:
///   * each middle advance resets the inner index from d2-1 to 0, which
///     breaks sharing whenever the inner dimension is nontrivial;
///   * each outer advance additionally resets the middle index, breaking
///     sharing unless both nested dimensions are trivial.
index_t noflip_turns(index_t d0, index_t d1, index_t d2)
{
    index_t turns = 0;
    if (d2 > 1) turns += d0 * (d1 - 1);
    if (d1 > 1 || d2 > 1) turns += d0 - 1;
    return turns;
}

TEST(SchedulePropertySweep, EveryKindCoversEveryBlockExactlyOnce)
{
    std::mt19937 rng(20260806u);
    std::uniform_int_distribution<index_t> dim(1, 9);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = dim(rng);
        for (ScheduleKind kind : all_schedule_kinds()) {
            for (bool n_outermost : {false, true}) {
                const auto order =
                    build_schedule(kind, mb, nb, kb, n_outermost);
                ASSERT_EQ(static_cast<index_t>(order.size()), mb * nb * kb)
                    << schedule_kind_name(kind) << " " << mb << "x" << nb
                    << "x" << kb;
                std::vector<char> seen(order.size(), 0);
                for (const auto& c : order) {
                    ASSERT_TRUE(c.m >= 0 && c.m < mb && c.n >= 0 && c.n < nb
                                && c.k >= 0 && c.k < kb);
                    const auto idx =
                        static_cast<std::size_t>((c.m * nb + c.n) * kb + c.k);
                    ASSERT_EQ(seen[idx], 0)
                        << schedule_kind_name(kind) << " revisits (" << c.m
                        << "," << c.n << "," << c.k << ")";
                    seen[idx] = 1;
                }
            }
        }
    }
}

TEST(SchedulePropertySweep, SerpentineSharesEveryTransition)
{
    // Algorithm 2's load-bearing invariant at arbitrary grid shapes:
    // every transition keeps at least one surface resident, so
    // count_shared_steps saturates at order.size() - 1.
    std::mt19937 rng(20260807u);
    std::uniform_int_distribution<index_t> dim(1, 9);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = dim(rng);
        for (bool n_outermost : {false, true}) {
            const auto order = build_schedule(ScheduleKind::kKFirstSerpentine,
                                              mb, nb, kb, n_outermost);
            EXPECT_EQ(count_shared_steps(order),
                      static_cast<index_t>(order.size()) - 1)
                << mb << "x" << nb << "x" << kb;
        }
    }
}

TEST(SchedulePropertySweep, NoFlipShortfallIsExactlyTheDimensionTurns)
{
    // The no-flip ablation loses sharing at precisely the dimension turns
    // and nowhere else: a closed form the IO model reuses when pricing
    // refetch traffic (§2.2).
    std::mt19937 rng(20260808u);
    std::uniform_int_distribution<index_t> dim(1, 9);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = dim(rng);
        for (bool n_outermost : {false, true}) {
            const auto order = build_schedule(ScheduleKind::kKFirstNoFlip, mb,
                                              nb, kb, n_outermost);
            const index_t d0 = n_outermost ? nb : mb;
            const index_t d1 = n_outermost ? mb : nb;
            EXPECT_EQ(count_shared_steps(order),
                      static_cast<index_t>(order.size()) - 1
                          - noflip_turns(d0, d1, kb))
                << mb << "x" << nb << "x" << kb << " n_outermost="
                << n_outermost;
        }
    }
}

// ---- Space-filling-curve schedules --------------------------------------

/// Collapse a K-innermost order to its (m, n) cell sequence and count the
/// cell transitions that change BOTH m and n. With K carried across every
/// cell boundary, such a diagonal/jump transition is exactly a transition
/// sharing no surface, so for any K-innermost schedule:
///   count_shared_steps == order.size() - 1 - diagonal_cell_moves.
index_t diagonal_cell_moves(const std::vector<BlockCoord>& order)
{
    index_t diagonals = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i].m != order[i - 1].m && order[i].n != order[i - 1].n) {
            ++diagonals;
        }
    }
    return diagonals;
}

TEST(SchedulePropertySweep, HilbertIsGridAdjacentAndFullySharing)
{
    // The generalised-Hilbert invariant the locality analyzer and the
    // IR_IO_CONSTBW check lean on: consecutive cells are grid neighbours
    // (|dm| + |dn| == 1) for EVERY rectangle, so with K carried across
    // cell boundaries every transition shares a surface — the same full
    // sharing Algorithm 2's serpentine achieves, on a fractal walk.
    std::mt19937 rng(20260809u);
    std::uniform_int_distribution<index_t> dim(1, 24);
    std::uniform_int_distribution<index_t> kdim(1, 6);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = kdim(rng);
        for (bool n_outermost : {false, true}) {
            const auto order = build_schedule(ScheduleKind::kHilbert, mb, nb,
                                              kb, n_outermost);
            ASSERT_EQ(static_cast<index_t>(order.size()), mb * nb * kb);
            BlockCoord prev_cell = order.front();
            for (const BlockCoord& c : order) {
                if (c.m != prev_cell.m || c.n != prev_cell.n) {
                    EXPECT_EQ(std::abs(c.m - prev_cell.m)
                                  + std::abs(c.n - prev_cell.n),
                              1)
                        << mb << "x" << nb << " jump (" << prev_cell.m << ","
                        << prev_cell.n << ")->(" << c.m << "," << c.n << ")";
                    prev_cell = c;
                }
            }
            EXPECT_EQ(count_shared_steps(order),
                      static_cast<index_t>(order.size()) - 1)
                << mb << "x" << nb << "x" << kb;
            EXPECT_EQ(schedule_traffic(order).c_spills, 0);
        }
    }
}

TEST(SchedulePropertySweep, SfcSharingMatchesDiagonalClosedForm)
{
    // Morton pays for its cheap index arithmetic with jumps at power-of-2
    // boundaries; the shared-step shortfall must be exactly the diagonal
    // cell moves (the closed form the locality analyzer prices), and
    // Hilbert must have none.
    std::mt19937 rng(20260810u);
    std::uniform_int_distribution<index_t> dim(1, 16);
    std::uniform_int_distribution<index_t> kdim(1, 5);
    for (int trial = 0; trial < 64; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = kdim(rng);
        for (bool n_outermost : {false, true}) {
            for (ScheduleKind kind :
                 {ScheduleKind::kHilbert, ScheduleKind::kMorton}) {
                const auto order =
                    build_schedule(kind, mb, nb, kb, n_outermost);
                const index_t diagonals = diagonal_cell_moves(order);
                if (kind == ScheduleKind::kHilbert) {
                    EXPECT_EQ(diagonals, 0) << mb << "x" << nb;
                }
                EXPECT_EQ(count_shared_steps(order),
                          static_cast<index_t>(order.size()) - 1 - diagonals)
                    << schedule_kind_name(kind) << " " << mb << "x" << nb
                    << "x" << kb;
            }
        }
    }
}

TEST(SchedulePropertySweep, LayeredScheduleCoversAndKeepsSeamsLocal)
{
    // The 2.5D variant: K split into balanced contiguous layers, the
    // (M, N) walk run once per layer with alternate layers reversed so
    // the seam stays in the column the previous layer ended in (the
    // partial-C surface is carried over the seam, not spilled).
    std::mt19937 rng(20260811u);
    std::uniform_int_distribution<index_t> dim(1, 7);
    std::uniform_int_distribution<index_t> kdim(2, 12);
    std::uniform_int_distribution<index_t> layers(1, 5);
    for (int trial = 0; trial < 48; ++trial) {
        const index_t mb = dim(rng);
        const index_t nb = dim(rng);
        const index_t kb = kdim(rng);
        const index_t k_layers = layers(rng);
        for (ScheduleKind kind :
             {ScheduleKind::kKFirstSerpentine, ScheduleKind::kHilbert}) {
            const auto order =
                build_layered_schedule(kind, mb, nb, kb, k_layers);
            ASSERT_EQ(static_cast<index_t>(order.size()), mb * nb * kb);
            std::set<std::tuple<index_t, index_t, index_t>> seen;
            for (const BlockCoord& c : order) {
                EXPECT_TRUE(seen.insert({c.m, c.n, c.k}).second);
            }
            // Full sharing survives the layering: within a layer by the
            // schedule's own invariant, across seams because the reversed
            // layer re-enters the same (m, n) column (C carried).
            EXPECT_EQ(count_shared_steps(order),
                      static_cast<index_t>(order.size()) - 1)
                << schedule_kind_name(kind) << " " << mb << "x" << nb << "x"
                << kb << " layers=" << k_layers;
        }
        // layers == 1 degenerates to the plain 2D schedule.
        EXPECT_EQ(build_layered_schedule(ScheduleKind::kKFirstSerpentine, mb,
                                         nb, kb, 1),
                  build_schedule(ScheduleKind::kKFirstSerpentine, mb, nb, kb));
    }
}

TEST(ScheduleTraffic, HandDerivedSmallCase)
{
    // 2x1x2 grid, serpentine: (0,0,0) (0,0,1) (1,0,1) (1,0,0).
    const auto order =
        build_schedule(ScheduleKind::kKFirstSerpentine, 2, 1, 2);
    ASSERT_EQ(order.size(), 4u);
    const auto t = schedule_traffic(order);
    // A surfaces: (0,0),(0,1),(1,1),(1,0) all distinct -> 4 fetches.
    EXPECT_EQ(t.a_fetches, 4);
    // B surfaces: (k,n) = (0,0),(1,0),(1,0)->shared,(0,0) -> 3 fetches.
    EXPECT_EQ(t.b_fetches, 3);
    EXPECT_EQ(t.c_spills, 0);
}

}  // namespace
}  // namespace cake
