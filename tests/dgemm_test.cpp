// Double-precision (dgemm) path: kernels, packing, CAKE and GOTO drivers
// against a long-double-accumulation oracle.
#include <gtest/gtest.h>

#include <tuple>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"
#include "test_names.hpp"

namespace cake {
namespace {

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

TEST(DoubleKernels, EveryIsaMatchesScalar)
{
    const auto kernels = supported_microkernels_of<double>();
    ASSERT_FALSE(kernels.empty());
    const index_t kc = 67;
    Rng rng(21);

    for (const auto& k : kernels) {
        AlignedBuffer<double> a(static_cast<std::size_t>(k.mr * kc));
        AlignedBuffer<double> b(static_cast<std::size_t>(k.nr * kc));
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = rng.next_float(-1, 1);
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = rng.next_float(-1, 1);

        AlignedBuffer<double> c(static_cast<std::size_t>(k.mr * k.nr), true);
        k.fn(kc, a.data(), b.data(), c.data(), k.nr, false);

        for (index_t i = 0; i < k.mr; ++i) {
            for (index_t j = 0; j < k.nr; ++j) {
                long double acc = 0;
                for (index_t p = 0; p < kc; ++p)
                    acc += static_cast<long double>(a[static_cast<std::size_t>(
                               p * k.mr + i)])
                        * b[static_cast<std::size_t>(p * k.nr + j)];
                EXPECT_NEAR(c[static_cast<std::size_t>(i * k.nr + j)],
                            static_cast<double>(acc), dgemm_tolerance(kc))
                    << k.name;
            }
        }
    }
}

TEST(DoubleKernels, RegistryHasBothFamilies)
{
    const auto f32 = supported_microkernels_of<float>();
    const auto f64 = supported_microkernels_of<double>();
    EXPECT_EQ(f32.size(), f64.size()) << "every ISA has both precisions";
    for (std::size_t i = 0; i < f64.size(); ++i) {
        EXPECT_EQ(f32[i].isa, f64[i].isa);
        // Double registers hold half as many lanes: nr halves, mr fixed
        // (for the SIMD kernels; the scalar pair is square in both).
        if (f64[i].isa != Isa::kScalar) {
            EXPECT_EQ(f64[i].nr * 2, f32[i].nr);
            EXPECT_EQ(f64[i].mr, f32[i].mr);
        }
    }
}

TEST(DoublePack, RoundTrip)
{
    MatrixD a(13, 9);
    Rng rng(22);
    a.fill_random(rng);
    const index_t mr = 6;
    std::vector<double> packed(
        static_cast<std::size_t>(packed_a_size(13, 9, mr)));
    pack_a_panel(a.data(), 9, 13, 9, mr, packed.data());
    for (index_t i = 0; i < 13; ++i)
        for (index_t p = 0; p < 9; ++p)
            EXPECT_EQ(packed_a_at(packed.data(), 13, 9, mr, i, p),
                      a.at(i, p));
}

using ShapeParam = std::tuple<index_t, index_t, index_t>;

class CakeDgemmShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(CakeDgemmShapeTest, MatchesOracle)
{
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m + 3 * n + 7 * k));
    MatrixD a(m, k);
    MatrixD b(k, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel_of<double>().mr * 2;
    const MatrixD c = cake_gemm(a, b, test_pool(), options);
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), dgemm_tolerance(k))
        << "m=" << m << " n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, CakeDgemmShapeTest,
    ::testing::Values(ShapeParam{1, 1, 1}, ShapeParam{7, 9, 11},
                      ShapeParam{64, 64, 64}, ShapeParam{97, 89, 83},
                      ShapeParam{128, 16, 16}, ShapeParam{16, 128, 16},
                      ShapeParam{16, 16, 128}, ShapeParam{120, 60, 33}),
    [](const auto& info) { return mnk_name(info.param); });

TEST(CakeDgemm, ElementSizeReachesSolver)
{
    // The CB solver must account for 8-byte elements: at equal cache
    // budgets, the double-precision mc is ~1/sqrt(2) of the float mc.
    const MachineSpec intel = intel_i9_10900k();
    TilingOptions f32;
    TilingOptions f64;
    f64.elem_bytes = 8;
    const CbBlockParams pf = compute_cb_block(intel, 4, 6, 16, f32);
    const CbBlockParams pd = compute_cb_block(intel, 4, 6, 8, f64);
    EXPECT_LT(pd.mc, pf.mc);
    EXPECT_EQ(pd.elem_bytes, 8);
    EXPECT_LE(pd.lru_working_set_bytes(), intel.llc_bytes());
}

TEST(CakeDgemm, AccumulateMode)
{
    Rng rng(23);
    MatrixD a(40, 30);
    MatrixD b(30, 50);
    a.fill_random(rng);
    b.fill_random(rng);
    MatrixD c(40, 50);
    c.fill(3.0);

    CakeOptions options;
    options.accumulate = true;
    options.mc = best_microkernel_of<double>().mr * 2;
    cake_dgemm(a.data(), b.data(), c.data(), 40, 50, 30, test_pool(),
               options);

    MatrixD expected = oracle_gemm(a, b);
    for (index_t i = 0; i < 40; ++i)
        for (index_t j = 0; j < 50; ++j) expected.at(i, j) += 3.0;
    EXPECT_LE(max_abs_diff(c, expected), dgemm_tolerance(30));
}

TEST(GotoDgemm, MatchesOracle)
{
    Rng rng(24);
    MatrixD a(70, 55);
    MatrixD b(55, 90);
    a.fill_random(rng);
    b.fill_random(rng);
    GotoOptions options;
    options.mc = best_microkernel_of<double>().mr * 2;
    options.nc = best_microkernel_of<double>().nr * 2;
    const MatrixD c = goto_gemm(a, b, test_pool(), options);
    EXPECT_LE(max_abs_diff(c, oracle_gemm(a, b)), dgemm_tolerance(55));
}

TEST(Dgemm, MorePreciseThanSgemm)
{
    // Sanity: at K = 512 the double path's error against its oracle is
    // orders of magnitude below the float path's.
    Rng rng(25);
    const index_t n = 96, k = 512;
    MatrixD ad(n, k);
    MatrixD bd(k, n);
    ad.fill_random(rng);
    bd.fill_random(rng);
    Matrix af(n, k);
    Matrix bf(k, n);
    for (index_t i = 0; i < n; ++i)
        for (index_t p = 0; p < k; ++p)
            af.at(i, p) = static_cast<float>(ad.at(i, p));
    for (index_t p = 0; p < k; ++p)
        for (index_t j = 0; j < n; ++j)
            bf.at(p, j) = static_cast<float>(bd.at(p, j));

    const double err_d =
        max_abs_diff(cake_gemm(ad, bd, test_pool()), oracle_gemm(ad, bd));
    const double err_f =
        max_abs_diff(cake_gemm(af, bf, test_pool()), oracle_gemm(af, bf));
    EXPECT_LT(err_d * 1e6, err_f + 1e-30);
}

}  // namespace
}  // namespace cake
