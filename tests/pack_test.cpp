// Packing tests: layout invariants, zero padding, round trips, and every
// kernel-owned sliver packer against the layout formula, byte for byte.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "kernel/registry.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

TEST(PackMath, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceil_div(0, 4), 0);
    EXPECT_EQ(ceil_div(1, 4), 1);
    EXPECT_EQ(ceil_div(4, 4), 1);
    EXPECT_EQ(ceil_div(5, 4), 2);
    EXPECT_EQ(round_up(0, 8), 0);
    EXPECT_EQ(round_up(1, 8), 8);
    EXPECT_EQ(round_up(8, 8), 8);
    EXPECT_EQ(round_up(9, 8), 16);
}

TEST(PackMath, PackedSizes)
{
    EXPECT_EQ(packed_a_size(10, 5, 4), 12 * 5);
    EXPECT_EQ(packed_b_size(5, 10, 8), 5 * 16);
}

class PackParamTest
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {
};

TEST_P(PackParamTest, PackARoundTrip)
{
    const auto [m, k, mr] = GetParam();
    Matrix a(m > 0 ? m : 1, k > 0 ? k : 1);
    Rng rng(5);
    a.fill_random(rng);

    std::vector<float> packed(static_cast<std::size_t>(packed_a_size(m, k, mr)),
                              -1.0f);
    pack_a_panel(a.data(), a.cols(), m, k, mr, packed.data());

    for (index_t i = 0; i < round_up(m, mr); ++i) {
        for (index_t p = 0; p < k; ++p) {
            const float expected = i < m ? a.at(i, p) : 0.0f;
            EXPECT_EQ(packed_a_at(packed.data(), m, k, mr, i, p), expected)
                << "i=" << i << " p=" << p;
        }
    }
}

TEST_P(PackParamTest, PackBRoundTrip)
{
    const auto [n, k, nr] = GetParam();
    Matrix b(k > 0 ? k : 1, n > 0 ? n : 1);
    Rng rng(6);
    b.fill_random(rng);

    std::vector<float> packed(static_cast<std::size_t>(packed_b_size(k, n, nr)),
                              -1.0f);
    pack_b_panel(b.data(), b.cols(), k, n, nr, packed.data());

    for (index_t p = 0; p < k; ++p) {
        for (index_t j = 0; j < round_up(n, nr); ++j) {
            const float expected = j < n ? b.at(p, j) : 0.0f;
            EXPECT_EQ(packed_b_at(packed.data(), k, n, nr, p, j), expected)
                << "p=" << p << " j=" << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PackParamTest,
    ::testing::Values(std::make_tuple<index_t, index_t, index_t>(1, 1, 6),
                      std::make_tuple<index_t, index_t, index_t>(6, 8, 6),
                      std::make_tuple<index_t, index_t, index_t>(7, 3, 6),
                      std::make_tuple<index_t, index_t, index_t>(13, 17, 8),
                      std::make_tuple<index_t, index_t, index_t>(64, 64, 16),
                      std::make_tuple<index_t, index_t, index_t>(100, 1, 14),
                      std::make_tuple<index_t, index_t, index_t>(1, 100, 14)));

TEST(PackA, SubMatrixWithLeadingDimension)
{
    // Pack a 5x4 window out of a 10x12 matrix.
    Matrix big(10, 12);
    big.fill_with([](index_t r, index_t c) {
        return static_cast<float>(100 * r + c);
    });
    const index_t mr = 4;
    std::vector<float> packed(
        static_cast<std::size_t>(packed_a_size(5, 4, mr)));
    pack_a_panel(big.data() + 2 * 12 + 3, 12, 5, 4, mr, packed.data());
    for (index_t i = 0; i < 5; ++i)
        for (index_t p = 0; p < 4; ++p)
            EXPECT_EQ(packed_a_at(packed.data(), 5, 4, mr, i, p),
                      big.at(2 + i, 3 + p));
}

TEST(PackB, SubMatrixWithLeadingDimension)
{
    Matrix big(10, 12);
    big.fill_with([](index_t r, index_t c) {
        return static_cast<float>(100 * r + c);
    });
    const index_t nr = 4;
    std::vector<float> packed(
        static_cast<std::size_t>(packed_b_size(3, 6, nr)));
    pack_b_panel(big.data() + 4 * 12 + 5, 12, 3, 6, nr, packed.data());
    for (index_t p = 0; p < 3; ++p)
        for (index_t j = 0; j < 6; ++j)
            EXPECT_EQ(packed_b_at(packed.data(), 3, 6, nr, p, j),
                      big.at(4 + p, 5 + j));
}

TEST(UnpackC, CopyAndAccumulate)
{
    const index_t m = 3, n = 4, ldc = 6;
    std::vector<float> cbuf(static_cast<std::size_t>(m * n));
    for (index_t i = 0; i < m * n; ++i)
        cbuf[static_cast<std::size_t>(i)] = static_cast<float>(i);
    std::vector<float> c(static_cast<std::size_t>(m * ldc), 10.0f);

    unpack_c_block(cbuf.data(), m, n, c.data(), ldc, /*accumulate=*/false);
    EXPECT_EQ(c[0], 0.0f);
    EXPECT_EQ(c[static_cast<std::size_t>(2 * ldc + 3)], 11.0f);
    EXPECT_EQ(c[4], 10.0f) << "columns past n must be untouched";

    unpack_c_block(cbuf.data(), m, n, c.data(), ldc, /*accumulate=*/true);
    EXPECT_EQ(c[static_cast<std::size_t>(2 * ldc + 3)], 22.0f);
}

TEST(PackZeroDims, NoWrites)
{
    std::vector<float> packed(8, -1.0f);
    pack_a_panel(static_cast<const float*>(nullptr), 1, 0, 0, 4,
                 packed.data());
    pack_b_panel(static_cast<const float*>(nullptr), 1, 0, 0, 4,
                 packed.data());
    for (float v : packed) EXPECT_EQ(v, -1.0f);
}

/// Source lane i at depth p for the sliver-packer tests: distinct finite
/// values, with -0.0, quiet NaNs and signalling NaNs carrying distinct
/// payloads mixed in, so a packer that routes values through arithmetic
/// or canonicalises a NaN differs in some byte.
template <typename T>
T lane_value(index_t i, index_t p)
{
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    constexpr int mantissa = std::numeric_limits<T>::digits - 1;
    constexpr Bits quiet = Bits{1} << (mantissa - 1);
    constexpr Bits exponent =
        (~Bits{0} >> 1) & ~((Bits{1} << mantissa) - 1);
    const index_t tag = (i + 2 * p) % 11;
    if ((i + p) % 7 == 3) return T(-0.0);
    if (tag == 5 || tag == 8) {
        Bits bits = exponent | static_cast<Bits>(i * 1024 + p + 1);
        if (tag == 5) bits |= quiet;
        T v{};
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    return static_cast<T>(i * 1000 + p) + T(0.5);
}

/// Every supported entry's gather_sliver and copy_sliver against the
/// layout formula out[p*width + i] = lane i at depth p (zero past live):
/// widths 1-16 and 32, every live <= width, depths around the 16-column
/// SIMD chunk, a padded source ld, and sentinels past the sliver so a
/// full-vector store where fewer lanes are meant is caught.
template <typename T>
void expect_sliver_packers_match_formula()
{
    constexpr index_t kTail = 16;
    const T poison = T(-7777);
    T sentinel{};
    const std::uint64_t sentinel_bits = 0xDEADBEEFDEADBEEFu;
    std::memcpy(&sentinel, &sentinel_bits, sizeof sentinel);
    std::vector<index_t> widths;
    for (index_t w = 1; w <= 16; ++w) widths.push_back(w);
    widths.push_back(32);
    for (const MicroKernelT<T>& kernel : supported_microkernels_of<T>()) {
        for (const bool strided : {true, false}) {
            const SliverFnT<T> fn =
                strided ? kernel.gather_sliver : kernel.copy_sliver;
            const char* name = strided ? "gather_sliver" : "copy_sliver";
            ASSERT_NE(fn, nullptr) << kernel.name << " " << name;
            for (const index_t k : {1, 15, 16, 17, 33, 504}) {
                for (const index_t width : widths) {
                    const index_t ld = (strided ? k : width) + 5;
                    const index_t lane_step = strided ? ld : 1;
                    const index_t depth_step = strided ? 1 : ld;
                    std::vector<T> src(
                        static_cast<std::size_t>((strided ? width : k) * ld),
                        poison);
                    for (index_t i = 0; i < width; ++i)
                        for (index_t p = 0; p < k; ++p)
                            src[static_cast<std::size_t>(
                                i * lane_step + p * depth_step)] =
                                lane_value<T>(i, p);
                    std::vector<T> out(
                        static_cast<std::size_t>(width * k + kTail));
                    for (index_t live = 0; live <= width; ++live) {
                        std::fill(out.begin(), out.end(), sentinel);
                        fn(src.data(), ld, live, k, width, out.data());
                        for (index_t e = 0; e < width * k + kTail; ++e) {
                            const index_t p = e / width;
                            const index_t i = e % width;
                            const T want = e >= width * k ? sentinel
                                : i < live                ? lane_value<T>(i, p)
                                                          : T(0);
                            const auto at = static_cast<std::size_t>(e);
                            if (std::memcmp(&out[at], &want, sizeof(T)) == 0)
                                continue;
                            FAIL() << kernel.name << " " << name
                                   << " width=" << width << " live=" << live
                                   << " k=" << k << ": element " << e
                                   << (e >= width * k
                                           ? " past the sliver was written"
                                           : " differs from the formula");
                        }
                    }
                }
            }
        }
    }
}

TEST(SliverPackers, F32MatchFormulaBitForBit)
{
    expect_sliver_packers_match_formula<float>();
}

TEST(SliverPackers, F64MatchFormulaBitForBit)
{
    expect_sliver_packers_match_formula<double>();
}

/// The four panel packers at the dispatched entry's own tile, with padded
/// leading dimensions, a partial last sliver and a sentinel past the
/// panel: every orientation lands on the packed_a_at / packed_b_at layout.
TEST(SliverPackers, PanelsOfEveryOrientationMatchFormula)
{
    const MicroKernel& kernel = best_microkernel();
    const index_t m = 3 * kernel.mr - 1, n = 2 * kernel.nr + 3, k = 37;
    const index_t pad = 3;
    const float sentinel = -4242.0f;
    auto value = [](index_t r, index_t c) {
        return static_cast<float>(r * 1000 + c) + 0.25f;
    };
    // A is m x k; A^T stores it k x m. B is k x n; B^T stores it n x k.
    std::vector<float> a(static_cast<std::size_t>(m * (k + pad)));
    std::vector<float> at(static_cast<std::size_t>(k * (m + pad)));
    std::vector<float> b(static_cast<std::size_t>(k * (n + pad)));
    std::vector<float> bt(static_cast<std::size_t>(n * (k + pad)));
    for (index_t i = 0; i < m; ++i) {
        for (index_t p = 0; p < k; ++p) {
            a[static_cast<std::size_t>(i * (k + pad) + p)] = value(i, p);
            at[static_cast<std::size_t>(p * (m + pad) + i)] = value(i, p);
        }
    }
    for (index_t p = 0; p < k; ++p) {
        for (index_t j = 0; j < n; ++j) {
            b[static_cast<std::size_t>(p * (n + pad) + j)] = value(p, j);
            bt[static_cast<std::size_t>(j * (k + pad) + p)] = value(p, j);
        }
    }
    const index_t a_size = packed_a_size(m, k, kernel.mr);
    const index_t b_size = packed_b_size(k, n, kernel.nr);
    for (const bool transposed : {false, true}) {
        std::vector<float> pa(static_cast<std::size_t>(a_size + 16),
                              sentinel);
        std::vector<float> pb(static_cast<std::size_t>(b_size + 16),
                              sentinel);
        if (transposed) {
            pack_a_panel_transposed(at.data(), m + pad, m, k, kernel.mr,
                                    pa.data());
            pack_b_panel_transposed(bt.data(), k + pad, k, n, kernel.nr,
                                    pb.data());
        } else {
            pack_a_panel(a.data(), k + pad, m, k, kernel.mr, pa.data());
            pack_b_panel(b.data(), n + pad, k, n, kernel.nr, pb.data());
        }
        for (index_t i = 0; i < round_up(m, kernel.mr); ++i)
            for (index_t p = 0; p < k; ++p)
                ASSERT_EQ(packed_a_at(pa.data(), m, k, kernel.mr, i, p),
                          i < m ? value(i, p) : 0.0f)
                    << "transposed=" << transposed << " i=" << i
                    << " p=" << p;
        for (index_t p = 0; p < k; ++p)
            for (index_t j = 0; j < round_up(n, kernel.nr); ++j)
                ASSERT_EQ(packed_b_at(pb.data(), k, n, kernel.nr, p, j),
                          j < n ? value(p, j) : 0.0f)
                    << "transposed=" << transposed << " p=" << p
                    << " j=" << j;
        for (index_t e = 0; e < 16; ++e) {
            EXPECT_EQ(pa[static_cast<std::size_t>(a_size + e)], sentinel);
            EXPECT_EQ(pb[static_cast<std::size_t>(b_size + e)], sentinel);
        }
    }
}

}  // namespace
}  // namespace cake
