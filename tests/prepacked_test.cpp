// Tests for pre-packed weights and the kernel self-test harness.
#include <gtest/gtest.h>

#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "kernel/selftest.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

CakeOptions small_blocks()
{
    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    return options;
}

TEST(Prepacked, MatchesRegularMultiply)
{
    Rng rng(401);
    const index_t m = 90, n = 120, k = 70;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeGemm gemm(test_pool(), small_blocks());
    const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);

    Matrix c_pre(m, n);
    gemm.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m);
    Matrix c_reg(m, n);
    gemm.multiply(a.data(), k, b.data(), n, c_reg.data(), n, m, n, k);

    EXPECT_EQ(max_abs_diff(c_pre, c_reg), 0.0)
        << "identical kernels on identical panels must agree bitwise";
    EXPECT_LE(max_abs_diff(c_pre, oracle_gemm(a, b)), gemm_tolerance(k));
}

TEST(Prepacked, SkipsBPackWork)
{
    Rng rng(402);
    const index_t m = 64, n = 200, k = 48;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeGemm gemm(test_pool(), small_blocks());
    const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);
    Matrix c(m, n);
    gemm.multiply_prepacked(a.data(), k, packed, c.data(), n, m);
    EXPECT_EQ(gemm.stats().b_packs, 0) << "no per-call B packing";
    EXPECT_GT(gemm.stats().a_packs, 0);
}

TEST(Prepacked, ReusedAcrossManyMultiplies)
{
    // Inference pattern: one weight pack, many activation batches.
    Rng rng(403);
    const index_t n = 64, k = 96;
    Matrix w(k, n);
    w.fill_random(rng);

    CakeOptions options = small_blocks();
    CakeGemm gemm(test_pool(), options);
    const PackedBF packed = gemm.pack_weights(w.data(), n, k, n);

    for (index_t batch : {1, 7, 33, 128}) {
        Matrix x(batch, k);
        x.fill_random(rng);
        Matrix y(batch, n);
        gemm.multiply_prepacked(x.data(), k, packed, y.data(), n, batch);
        EXPECT_LE(max_abs_diff(y, oracle_gemm(x, w)), gemm_tolerance(k))
            << "batch " << batch;
    }
}

TEST(Prepacked, TransposedWeightsHonoured)
{
    Rng rng(404);
    const index_t n = 40, k = 56;
    Matrix w(k, n);
    w.fill_random(rng);
    Matrix wt(n, k);
    for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < n; ++j) wt.at(j, p) = w.at(p, j);

    CakeOptions options = small_blocks();
    options.op_b = Op::kTranspose;
    CakeGemm gemm(test_pool(), options);
    const PackedBF packed = gemm.pack_weights(wt.data(), k, k, n);

    Matrix x(25, k);
    x.fill_random(rng);
    Matrix y(25, n);
    gemm.multiply_prepacked(x.data(), k, packed, y.data(), n, 25);
    EXPECT_LE(max_abs_diff(y, oracle_gemm(x, w)), gemm_tolerance(k));
}

TEST(Prepacked, GeometryMismatchRejected)
{
    Rng rng(405);
    Matrix b(32, 32);
    b.fill_random(rng);

    CakeOptions opt_a = small_blocks();
    CakeGemm gemm_a(test_pool(), opt_a);
    const PackedBF packed = gemm_a.pack_weights(b.data(), 32, 32, 32);

    CakeOptions opt_b = small_blocks();
    opt_b.mc = best_microkernel().mr * 4;  // different geometry
    CakeGemm gemm_b(test_pool(), opt_b);
    Matrix a(16, 32);
    Matrix c(16, 32);
    EXPECT_THROW(
        gemm_b.multiply_prepacked(a.data(), 32, packed, c.data(), 32, 16),
        Error);
    // Empty pack rejected too.
    PackedBF empty;
    EXPECT_THROW(
        gemm_a.multiply_prepacked(a.data(), 32, empty, c.data(), 32, 16),
        Error);
}

TEST(Prepacked, DoublePrecision)
{
    Rng rng(406);
    const index_t m = 30, n = 44, k = 52;
    MatrixD a(m, k);
    MatrixD b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel_of<double>().mr * 2;
    CakeGemmD gemm(test_pool(), options);
    const PackedBD packed = gemm.pack_weights(b.data(), n, k, n);
    MatrixD c(m, n);
    gemm.multiply_prepacked(a.data(), k, packed, c.data(), n, m);
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), dgemm_tolerance(k));
}

TEST(Prepacked, PanelStrideFollowsTheWeights)
{
    // A panel is never deeper than k nor wider than n: the 8 x 64 weight
    // matrix of a default context gets one panel of the entry's packed
    // depth of 8 rows by 64 columns rounded to nr, not a k_blk x n_blk
    // slot of the plan.
    const index_t k = 8, n = 64;
    Matrix b(k, n);
    Rng rng(406);
    b.fill_random(rng);
    CakeGemm gemm(test_pool());
    const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);
    const MicroKernel& kernel = best_microkernel();
    EXPECT_LE(packed.panel_stride(),
              static_cast<std::size_t>(kernel.packed_depth(k)
                                       * round_up(n, kernel.nr)));
}

TEST(Prepacked, MatchesMultiplyOnEdgeShapes)
{
    // Shapes with m, n and k off every block and tile multiple, and ones
    // smaller than one block: the prepacked panels (sized by the weights)
    // and the per-call ones must give the same C bit for bit.
    Rng rng(407);
    for (const auto& [m, n, k] : {std::tuple<index_t, index_t, index_t>{
                                     1, 1, 1},
                                 {7, 33, 5},
                                 {45, 17, 70},
                                 {90, 129, 200}}) {
        Matrix a(m, k);
        Matrix b(k, n);
        a.fill_random(rng);
        b.fill_random(rng);
        CakeGemm gemm(test_pool(), small_blocks());
        const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);
        Matrix c_pre(m, n);
        gemm.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m);
        Matrix c_reg(m, n);
        gemm.multiply(a.data(), k, b.data(), n, c_reg.data(), n, m, n, k);
        EXPECT_EQ(max_abs_diff(c_pre, c_reg), 0.0)
            << "m=" << m << " n=" << n << " k=" << k;
    }
}

TEST(KernelSelfTest, AllSupportedKernelsPass)
{
    const auto results = run_kernel_selftest();
    // At least scalar f32, scalar f64 and scalar int8 run everywhere.
    EXPECT_GE(results.size(), 3u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.passed) << r.kernel << " (" << r.family
                              << ") max_err=" << r.max_error;
    }
    EXPECT_TRUE(all_kernels_ok());
}

TEST(KernelSelfTest, CoversEveryFamily)
{
    bool f32 = false, f64 = false, i8 = false;
    for (const auto& r : run_kernel_selftest()) {
        f32 |= r.family == "f32";
        f64 |= r.family == "f64";
        i8 |= r.family == "i8";
    }
    EXPECT_TRUE(f32);
    EXPECT_TRUE(f64);
    EXPECT_TRUE(i8);
}

}  // namespace
}  // namespace cake
