// Differential shape lattice: CAKE (several configurations) and GOTO
// against the oracle over a Fibonacci-ish lattice of (m, n, k) shapes,
// plus the simulator's in-pipeline functional validation.
#include <gtest/gtest.h>

#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "ref/naive_gemm.hpp"
#include "sim/machine_sim.hpp"
#include "test_names.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

using Shape = std::tuple<index_t, index_t, index_t>;

std::vector<Shape> lattice()
{
    // Fibonacci axis values hit many distinct edge-tile phases against
    // mr in {6, 8, 14} and nr in {8, 16, 32}.
    const std::vector<index_t> axis = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
    std::vector<Shape> shapes;
    // Diagonal (square) shapes.
    for (index_t v : axis) shapes.emplace_back(v, v, v);
    // Axis-skewed shapes: one dimension large, others small.
    for (index_t v : {34, 89}) {
        shapes.emplace_back(v, 3, 5);
        shapes.emplace_back(3, v, 5);
        shapes.emplace_back(3, 5, v);
    }
    // Deterministic pseudo-random off-diagonal picks.
    Rng rng(7777);
    for (int i = 0; i < 14; ++i) {
        shapes.emplace_back(axis[rng.next_below(axis.size())],
                            axis[rng.next_below(axis.size())],
                            axis[rng.next_below(axis.size())]);
    }
    return shapes;
}

class LatticeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(LatticeTest, AllEnginesMatchOracle)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(1000003 * m + 1009 * n + k));
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const Matrix expected = oracle_gemm(a, b);
    const double tol = gemm_tolerance(k);

    // CAKE at two geometries and two worker counts.
    for (index_t mc_mult : {1, 3}) {
        for (int p : {1, 3}) {
            CakeOptions options;
            options.mc = best_microkernel().mr * mc_mult;
            options.p = p;
            const Matrix c = cake_gemm(a, b, test_pool(), options);
            ASSERT_LE(max_abs_diff(c, expected), tol)
                << "cake m=" << m << " n=" << n << " k=" << k
                << " mc_mult=" << mc_mult << " p=" << p;
        }
    }
    // GOTO baseline.
    GotoOptions gopt;
    gopt.mc = best_microkernel().mr;
    gopt.nc = best_microkernel().nr;
    const Matrix g = goto_gemm(a, b, test_pool(), gopt);
    ASSERT_LE(max_abs_diff(g, expected), tol) << "goto";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LatticeTest, ::testing::ValuesIn(lattice()),
    [](const auto& info) { return mnk_name(info.param); });

TEST(FunctionalSim, PipelineCarriesRealDataCorrectly)
{
    // The §6.2 fidelity upgrade: operands travel with the simulation and
    // each compute event performs its block's partial product. Any block
    // the pipeline drops, duplicates or reorders inconsistently shows up
    // as numerical error.
    for (ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip}) {
        sim::SimConfig config;
        config.machine = arm_cortex_a53();
        config.p = 2;
        config.shape = {150, 170, 90};
        config.schedule = kind;
        config.validate_data = true;
        const auto result = sim::simulate(config);
        EXPECT_LE(result.max_abs_error, gemm_tolerance(90))
            << schedule_kind_name(kind);
        EXPECT_GT(result.steps, 1);
    }
}

TEST(FunctionalSim, GotoPlanCarriesRealDataCorrectly)
{
    // GOTO is a plan of the same pipeline, so its block order gets the
    // same functional check: several (p*mc)-row blocks per kc pass, C
    // re-read every pass.
    sim::SimConfig config;
    config.machine = arm_cortex_a53();
    config.p = 4;
    config.shape = {200, 300, 500};
    config.algorithm = sim::Algorithm::kGoto;
    config.validate_data = true;
    const auto result = sim::simulate(config);
    ASSERT_LT(result.params.m_blk, config.shape.m);
    EXPECT_GT(result.steps, 1);
    EXPECT_LE(result.max_abs_error, gemm_tolerance(config.shape.k));
}

}  // namespace
}  // namespace cake
