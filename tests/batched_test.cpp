// Tests for the batched GEMM API: both batch strategies, the strided
// form, the empty batch and double precision.
#include <gtest/gtest.h>

#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

// ---------------------------------------------------------------- batched

TEST(Batched, MixedShapesBothStrategiesMatchOracle)
{
    Rng rng(51);
    struct Problem {
        Matrix a, b, c;
    };
    std::vector<Problem> problems;
    const std::vector<std::tuple<index_t, index_t, index_t>> shapes = {
        {16, 16, 16}, {33, 21, 44}, {64, 8, 128}, {5, 80, 7}, {40, 40, 40}};
    for (const auto& [m, n, k] : shapes) {
        Problem p{Matrix(m, k), Matrix(k, n), Matrix(m, n)};
        p.a.fill_random(rng);
        p.b.fill_random(rng);
        problems.push_back(std::move(p));
    }

    for (BatchStrategy strategy :
         {BatchStrategy::kSequential, BatchStrategy::kParallelProblems,
          BatchStrategy::kAuto}) {
        std::vector<GemmBatchItem<float>> items;
        for (auto& p : problems) {
            p.c.fill(-7.0f);
            items.push_back({p.a.data(), p.a.cols(), p.b.data(), p.b.cols(),
                             p.c.data(), p.c.cols(), p.a.rows(), p.b.cols(),
                             p.a.cols()});
        }
        CakeOptions options;
        options.mc = best_microkernel().mr * 2;
        cake_gemm_batched(test_pool(), items, options, strategy);
        for (auto& p : problems) {
            EXPECT_LE(max_abs_diff(p.c, oracle_gemm(p.a, p.b)),
                      gemm_tolerance(p.a.cols()))
                << "strategy " << static_cast<int>(strategy);
        }
    }
}

TEST(Batched, StridedBatchedMatchesLoop)
{
    Rng rng(52);
    const index_t m = 24, n = 32, k = 20, count = 6;
    std::vector<float> a(static_cast<std::size_t>(count * m * k));
    std::vector<float> b(static_cast<std::size_t>(count * k * n));
    std::vector<float> c(static_cast<std::size_t>(count * m * n), 0.0f);
    for (auto& v : a) v = rng.next_float(-1, 1);
    for (auto& v : b) v = rng.next_float(-1, 1);

    cake_gemm_strided_batched(test_pool(), a.data(), m * k, b.data(), k * n,
                              c.data(), m * n, m, n, k, count);

    for (index_t i = 0; i < count; ++i) {
        Matrix ai(m, k), bi(k, n), ci(m, n);
        std::copy_n(a.data() + i * m * k, m * k, ai.data());
        std::copy_n(b.data() + i * k * n, k * n, bi.data());
        std::copy_n(c.data() + i * m * n, m * n, ci.data());
        EXPECT_LE(max_abs_diff(ci, oracle_gemm(ai, bi)), gemm_tolerance(k))
            << "batch item " << i;
    }
}

TEST(Batched, EmptyBatchIsNoop)
{
    cake_gemm_batched<float>(test_pool(), {});
    cake_gemm_strided_batched<float>(test_pool(), nullptr, 0, nullptr, 0,
                                     nullptr, 0, 4, 4, 4, 0);
}

TEST(Batched, DoublePrecisionBatch)
{
    Rng rng(53);
    const index_t m = 18, n = 22, k = 14, count = 4;
    std::vector<double> a(static_cast<std::size_t>(count * m * k));
    std::vector<double> b(static_cast<std::size_t>(count * k * n));
    std::vector<double> c(static_cast<std::size_t>(count * m * n));
    for (auto& v : a) v = rng.next_double() - 0.5;
    for (auto& v : b) v = rng.next_double() - 0.5;
    cake_gemm_strided_batched(test_pool(), a.data(), m * k, b.data(), k * n,
                              c.data(), m * n, m, n, k, count, {},
                              BatchStrategy::kParallelProblems);
    for (index_t i = 0; i < count; ++i) {
        MatrixD ai(m, k), bi(k, n), ci(m, n);
        std::copy_n(a.data() + i * m * k, m * k, ai.data());
        std::copy_n(b.data() + i * k * n, k * n, bi.data());
        std::copy_n(c.data() + i * m * n, m * n, ci.data());
        EXPECT_LE(max_abs_diff(ci, oracle_gemm(ai, bi)), dgemm_tolerance(k));
    }
}

}  // namespace
}  // namespace cake
