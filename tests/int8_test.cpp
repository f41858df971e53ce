// Quantized-path tests: int8 packing, kernels (exact integer comparisons),
// the int8 CAKE driver, quantization helpers and the end-to-end qgemm.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm_int8.hpp"
#include "core/fperror.hpp"
#include "core/quant.hpp"
#include "kernel/registry.hpp"
#include "kernel/selftest.hpp"
#include "machine/machine.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"

namespace cake {
namespace {

using Int8Kernel = MicroKernelT<U8S8S32>;

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

/// Exact integer oracle: C[i][j] = sum_k A(i,k) * B(k,j) in int64.
std::vector<std::int64_t> int_oracle(const std::vector<std::uint8_t>& a,
                                     const std::vector<std::int8_t>& b,
                                     index_t m, index_t n, index_t k)
{
    std::vector<std::int64_t> c(static_cast<std::size_t>(m * n), 0);
    for (index_t i = 0; i < m; ++i)
        for (index_t p = 0; p < k; ++p)
            for (index_t j = 0; j < n; ++j)
                c[static_cast<std::size_t>(i * n + j)] +=
                    static_cast<std::int64_t>(
                        a[static_cast<std::size_t>(i * k + p)])
                    * b[static_cast<std::size_t>(p * n + j)];
    return c;
}

void fill_random_u8(std::vector<std::uint8_t>& v, Rng& rng)
{
    for (auto& x : v)
        x = static_cast<std::uint8_t>(rng.next_below(128));  // [0,127]
}

void fill_random_s8(std::vector<std::int8_t>& v, Rng& rng)
{
    for (auto& x : v)
        x = static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);  // [-127,127]
}

// The pack round trips pin every supported int8 entry's own packers,
// through the one sliver walk, to that entry's layout formula
// (MicroKernelT::a_offset / b_offset, zero past k up to its packed
// depth): whole k-quads (the word-copy / four-row interleave fast paths),
// the k % 4 tail quad, whole and partial 64-deep AMX chunks, dead rows /
// partial slivers, and padded leading dimensions.
constexpr index_t kRoundTripDepths[] = {1, 3, 13, 63, 64, 65, 129};

TEST(Int8Pack, QuadLayoutRoundTrip)
{
    Rng rng(101);
    for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
        const index_t mr = kernel.mr;
        for (const index_t k : kRoundTripDepths) {
            const index_t depth = kernel.packed_depth(k);
            for (const index_t m : {2 * mr, 2 * mr + 3}) {
                for (const index_t pad : {0, 5}) {
                    SCOPED_TRACE(::testing::Message()
                                 << kernel.name << " m=" << m << " k=" << k
                                 << " lda=" << k + pad);
                    const index_t lda = k + pad;
                    std::vector<std::uint8_t> a(
                        static_cast<std::size_t>(m * lda));
                    fill_random_u8(a, rng);
                    std::vector<std::uint8_t> packed(
                        static_cast<std::size_t>(round_up(m, mr) * depth),
                        0xEE);
                    pack_a_slivers(kernel, false, a.data(), lda, m, k, mr,
                                   packed.data());

                    for (index_t i = 0; i < round_up(m, mr); ++i) {
                        for (index_t kk = 0; kk < depth; ++kk) {
                            const std::uint8_t got =
                                packed[static_cast<std::size_t>(
                                    i / mr * mr * depth
                                    + kernel.a_offset(mr, i % mr, kk))];
                            const std::uint8_t expected = (i < m && kk < k)
                                ? a[static_cast<std::size_t>(i * lda + kk)]
                                : 0;
                            ASSERT_EQ(got, expected)
                                << "i=" << i << " k=" << kk;
                        }
                    }
                }
            }
        }
    }
}

TEST(Int8Pack, BQuadLayoutRoundTrip)
{
    Rng rng(102);
    for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
        const index_t nr = kernel.nr;
        for (const index_t k : kRoundTripDepths) {
            const index_t depth = kernel.packed_depth(k);
            for (const index_t n : {2 * nr, 2 * nr + 3}) {
                for (const index_t pad : {0, 7}) {
                    SCOPED_TRACE(::testing::Message()
                                 << kernel.name << " n=" << n << " k=" << k
                                 << " ldb=" << n + pad);
                    const index_t ldb = n + pad;
                    std::vector<std::int8_t> b(
                        static_cast<std::size_t>(k * ldb));
                    fill_random_s8(b, rng);
                    std::vector<std::int8_t> packed(
                        static_cast<std::size_t>(depth * round_up(n, nr)),
                        0x7E);
                    pack_b_slivers(kernel, false, b.data(), ldb, k, n, nr,
                                   packed.data());

                    for (index_t jj = 0; jj < round_up(n, nr); ++jj) {
                        for (index_t kk = 0; kk < depth; ++kk) {
                            const std::int8_t got =
                                packed[static_cast<std::size_t>(
                                    jj / nr * nr * depth
                                    + kernel.b_offset(nr, jj % nr, kk))];
                            const std::int8_t expected = (jj < n && kk < k)
                                ? b[static_cast<std::size_t>(kk * ldb + jj)]
                                : 0;
                            ASSERT_EQ(got, expected)
                                << "j=" << jj << " k=" << kk;
                        }
                    }
                }
            }
        }
    }
}

TEST(Int8Pack, RefusesAAbove127InWholeAndTailQuads)
{
    // [I8_A_RANGE]: the sliver walk refuses a value past 127 wherever it
    // sits, in a whole quad (the word-copy path) or in the k % 4 tail
    // quad, under every supported entry's packer.
    const index_t m = 5, k = 14;
    for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
        for (const int bad : {128, 255}) {
            for (const index_t at :
                 {index_t{2 * k + 5}, index_t{4 * k + 13}}) {
                std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k),
                                            127);
                a[static_cast<std::size_t>(at)] =
                    static_cast<std::uint8_t>(bad);
                std::vector<std::uint8_t> packed(static_cast<std::size_t>(
                    round_up(m, kernel.mr) * kernel.packed_depth(k)));
                try {
                    pack_a_slivers(kernel, false, a.data(), k, m, k,
                                   kernel.mr, packed.data());
                    FAIL() << kernel.name << ": A = " << bad << " at " << at
                           << " must be refused";
                } catch (const Error& e) {
                    EXPECT_NE(std::string(e.what()).find("[I8_A_RANGE]"),
                              std::string::npos)
                        << e.what();
                }
            }
        }
    }
}

TEST(Int8Kernel, BestKernelMatchesScalarExactly)
{
    // The dispatched kernel on slivers in its own layout, zero-padded to
    // its packed depth, against the exact int64 sum.
    const Int8Kernel& best = best_microkernel_of<U8S8S32>();
    Rng rng(103);

    for (index_t kq : {1, 2, 7, 16, 17, 48}) {
        const index_t depth = kq * 4;
        const index_t packed = best.packed_depth(depth);
        // 64-byte aligned slivers for the SIMD and tile loads.
        AlignedBuffer<std::uint8_t> aa(
            static_cast<std::size_t>(best.mr * packed), true);
        AlignedBuffer<std::int8_t> ab(
            static_cast<std::size_t>(best.nr * packed), true);
        for (index_t p = 0; p < depth; ++p) {
            for (index_t i = 0; i < best.mr; ++i)
                aa[static_cast<std::size_t>(best.a_offset(best.mr, i, p))] =
                    static_cast<std::uint8_t>(rng.next_below(128));
            for (index_t j = 0; j < best.nr; ++j)
                ab[static_cast<std::size_t>(best.b_offset(best.nr, j, p))] =
                    static_cast<std::int8_t>(
                        static_cast<int>(rng.next_below(255)) - 127);
        }

        std::vector<std::int32_t> c_best(
            static_cast<std::size_t>(best.mr * best.nr), -1);
        best.fn(kq, aa.data(), ab.data(), c_best.data(), best.nr, false);

        for (index_t i = 0; i < best.mr; ++i) {
            for (index_t j = 0; j < best.nr; ++j) {
                std::int64_t acc = 0;
                for (index_t p = 0; p < depth; ++p)
                    acc += static_cast<std::int64_t>(
                               aa[static_cast<std::size_t>(
                                   best.a_offset(best.mr, i, p))])
                        * ab[static_cast<std::size_t>(
                            best.b_offset(best.nr, j, p))];
                ASSERT_EQ(c_best[static_cast<std::size_t>(i * best.nr + j)],
                          static_cast<std::int32_t>(acc))
                    << best.name << " kq=" << kq << " (" << i << "," << j
                    << ")";
            }
        }
    }
}

using ShapeParam = std::tuple<index_t, index_t, index_t>;

class Int8GemmShapeTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(Int8GemmShapeTest, ExactAgainstIntegerOracle)
{
    // Every configuration of the one executor: overlap on and off, every
    // registered schedule, p in {1, 2, 4}, per-call and pre-packed B.
    const auto [m, n, k] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 7 + n * 11 + k * 13));
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    const auto oracle = int_oracle(a, b, m, n, k);

    for (const CakeExec exec : {CakeExec::kPipelined, CakeExec::kSerial}) {
        for (const ScheduleKind kind : all_schedule_kinds()) {
            for (const int p : {1, 2, 4}) {
                for (const bool prepacked : {false, true}) {
                    CakeOptions options;
                    options.mc = best_microkernel_of<U8S8S32>().mr * 4;
                    options.exec = exec;
                    options.schedule = kind;
                    options.p = p;
                    CakeGemmInt8 gemm(test_pool(), options);
                    std::vector<std::int32_t> c(
                        static_cast<std::size_t>(m * n), 999);
                    if (prepacked) {
                        const PackedBInt8 packed =
                            gemm.pack_weights(b.data(), n, k, n);
                        gemm.multiply_prepacked(a.data(), k, packed,
                                                c.data(), n, m);
                    } else {
                        gemm.multiply(a.data(), k, b.data(), n, c.data(), n,
                                      m, n, k);
                    }
                    EXPECT_EQ(gemm.stats().pipelined,
                              exec == CakeExec::kPipelined);
                    for (index_t i = 0; i < m * n; ++i) {
                        ASSERT_EQ(static_cast<std::int64_t>(
                                      c[static_cast<std::size_t>(i)]),
                                  oracle[static_cast<std::size_t>(i)])
                            << "m=" << m << " n=" << n << " k=" << k
                            << " idx=" << i << " overlap="
                            << (exec == CakeExec::kPipelined)
                            << " schedule=" << schedule_kind_name(kind)
                            << " p=" << p << " prepacked=" << prepacked;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, Int8GemmShapeTest,
    ::testing::Values(ShapeParam{1, 1, 1}, ShapeParam{4, 16, 4},
                      ShapeParam{5, 17, 6}, ShapeParam{64, 64, 64},
                      ShapeParam{33, 65, 129}, ShapeParam{128, 16, 8},
                      ShapeParam{16, 128, 300}, ShapeParam{97, 89, 83}),
    [](const auto& info) {
        return "m" + std::to_string(std::get<0>(info.param)) + "n"
            + std::to_string(std::get<1>(info.param)) + "k"
            + std::to_string(std::get<2>(info.param));
    });

TEST(Int8Gemm, AccumulateMode)
{
    Rng rng(104);
    const index_t m = 20, n = 24, k = 32;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 5);

    CakeOptions options;
    options.accumulate = true;
    cake_gemm_s8u8s32(a.data(), b.data(), c.data(), m, n, k, test_pool(),
                      options);
    const auto oracle = int_oracle(a, b, m, n, k);
    for (index_t i = 0; i < m * n; ++i)
        ASSERT_EQ(c[static_cast<std::size_t>(i)],
                  static_cast<std::int32_t>(
                      oracle[static_cast<std::size_t>(i)] + 5));
}

TEST(Int8Gemm, PrepackedMatchesRegular)
{
    Rng rng(108);
    const index_t m = 40, n = 48, k = 64;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);

    CakeOptions options;
    options.mc = best_microkernel_of<U8S8S32>().mr * 4;
    CakeGemmInt8 gemm(test_pool(), options);
    const PackedBInt8 packed = gemm.pack_weights(b.data(), n, k, n);

    std::vector<std::int32_t> c_pre(static_cast<std::size_t>(m * n), -1);
    std::vector<std::int32_t> c_reg(static_cast<std::size_t>(m * n), -2);
    gemm.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m);
    EXPECT_EQ(gemm.stats().b_packs, 0);
    gemm.multiply(a.data(), k, b.data(), n, c_reg.data(), n, m, n, k);
    EXPECT_EQ(c_pre, c_reg) << "integer results must be identical";

    // Geometry mismatch rejected.
    CakeOptions other = options;
    other.mc = best_microkernel_of<U8S8S32>().mr * 8;
    CakeGemmInt8 gemm2(test_pool(), other);
    EXPECT_THROW(
        gemm2.multiply_prepacked(a.data(), k, packed, c_pre.data(), n, m),
        Error);
}

TEST(Int8Gemm, PrepackedMatchesMultiplyOnEdgeShapesUnderEveryKernel)
{
    // Every supported int8 entry, AMX included: prepacked B (panels sized
    // by the weights, in the entry's layout and packed depth) equals the
    // per-call multiply and the int64 oracle on shapes off every tile,
    // block and 64-deep chunk multiple, with accumulate off and on, at
    // p = 1 and p = 4.
    Rng rng(111);
    for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
        for (const auto& [m, n, k] : {std::tuple<index_t, index_t, index_t>{
                                         1, 1, 1},
                                     {9, 33, 5},
                                     {45, 70, 65},
                                     {70, 100, 200}}) {
            for (const auto& [accumulate, p] :
                 {std::pair{false, 1}, {true, 1}, {false, 4}, {true, 4}}) {
                SCOPED_TRACE(::testing::Message()
                             << kernel.name << " m=" << m << " n=" << n
                             << " k=" << k << " accumulate=" << accumulate
                             << " p=" << p);
                std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
                std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
                fill_random_u8(a, rng);
                fill_random_s8(b, rng);
                const auto oracle = int_oracle(a, b, m, n, k);
                CakeOptions options;
                options.isa = kernel.isa;
                options.mc = kernel.mr * 2;
                options.accumulate = accumulate;
                options.p = p;
                CakeGemmInt8 gemm(test_pool(), options);
                const PackedBInt8 packed =
                    gemm.pack_weights(b.data(), n, k, n);
                EXPECT_LE(packed.panel_stride(),
                          static_cast<std::size_t>(
                              kernel.packed_depth(k)
                              * round_up(n, kernel.nr)));
                std::vector<std::int32_t> c_pre(
                    static_cast<std::size_t>(m * n), 3);
                std::vector<std::int32_t> c_reg = c_pre;
                gemm.multiply_prepacked(a.data(), k, packed, c_pre.data(), n,
                                        m);
                gemm.multiply(a.data(), k, b.data(), n, c_reg.data(), n, m,
                              n, k);
                EXPECT_EQ(c_pre, c_reg);
                for (index_t i = 0; i < m * n; ++i) {
                    ASSERT_EQ(static_cast<std::int64_t>(
                                  c_pre[static_cast<std::size_t>(i)]),
                              oracle[static_cast<std::size_t>(i)]
                                  + (accumulate ? 3 : 0))
                        << "idx=" << i;
                }
            }
        }
    }
}

TEST(Int8Gemm, RefusesKPastSafeRangeAndStaysUsable)
{
    // Past int8_safe_k() the worst-case |i32 accumulator| K * 127^2 no
    // longer fits int32: the multiply must refuse with a coded error
    // before touching C, and the same context must still multiply exactly
    // at the limit itself, where every accumulator lands on K * 127^2.
    const index_t k = int8_safe_k() + 1;
    const std::vector<std::uint8_t> a(static_cast<std::size_t>(k), 127);
    const std::vector<std::int8_t> b(static_cast<std::size_t>(k), 127);
    std::int32_t c = -5;
    CakeGemmInt8 gemm(test_pool());
    try {
        gemm.multiply(a.data(), k, b.data(), 1, &c, 1, 1, 1, k);
        FAIL() << "K past int8_safe_k() must be refused";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("[I8_ACC_RANGE]"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(c, -5) << "a refused multiply must not write C";

    gemm.multiply(a.data(), k - 1, b.data(), 1, &c, 1, 1, 1, k - 1);
    EXPECT_EQ(static_cast<std::int64_t>(c),
              static_cast<std::int64_t>(k - 1) * 127 * 127);
}

TEST(Int8Gemm, RefusesAAbove127UnderEveryKernelAndStaysUsable)
{
    // One A contract for every kernel, so results never depend on the ISA:
    // A past 127 (where the AVX2 vpmaddubsw pairs saturate) is a coded
    // [I8_A_RANGE] error under each supported int8 kernel, and the same
    // context then multiplies valid input exactly.
    Rng rng(109);
    const index_t m = 37, n = 70, k = 30;
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    const auto oracle = int_oracle(a, b, m, n, k);

    for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
        CakeOptions options;
        options.isa = kernel.isa;
        CakeGemmInt8 gemm(test_pool(), options);
        // 128 in a whole quad of the first (full) sliver, 255 in the
        // k % 4 tail quad of the last row (a partial sliver).
        for (const int bad : {128, 255}) {
            std::vector<std::uint8_t> a_bad = a;
            const index_t at = bad == 128 ? 17 : (m - 1) * k + k - 1;
            a_bad[static_cast<std::size_t>(at)] =
                static_cast<std::uint8_t>(bad);
            std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
            try {
                gemm.multiply(a_bad.data(), k, b.data(), n, c.data(), n, m, n,
                              k);
                FAIL() << kernel.name << ": A = " << bad
                       << " must be refused";
            } catch (const Error& e) {
                EXPECT_NE(std::string(e.what()).find("[I8_A_RANGE]"),
                          std::string::npos)
                    << kernel.name << ": " << e.what();
            }
        }
        std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), -1);
        gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
        for (index_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(c[static_cast<std::size_t>(i)]),
                      oracle[static_cast<std::size_t>(i)])
                << kernel.name << " idx=" << i;
        }
    }
}

TEST(Int8Gemm, ModelledTrafficAtStoredWidths)
{
    // A and B count at their stored 1-byte width and C at its 4-byte
    // accumulator width, in both overlap modes. The expected values are
    // pinned to what the dedicated int8 executor reported for this fixed
    // machine and geometry, so running on the shared block plan changed
    // none of them (mc, kc, nc are multiples of every int8 kernel's mr and
    // nr, so the plan is the same on every host).
    const index_t m = 200, n = 300, k = 250;
    const std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k), 3);
    const std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), -2);
    struct Case {
        bool accumulate;
        bool prepacked;
        index_t b_packs;
        std::uint64_t dram_read_bytes;
    };
    for (const Case& cs : {Case{false, false, 39, 391392},
                           Case{true, false, 39, 631392},
                           Case{false, true, 0, 391392}}) {
        for (const CakeExec exec : {CakeExec::kPipelined, CakeExec::kSerial}) {
            CakeOptions options;
            options.machine = intel_i9_10900k();
            options.p = 1;
            options.mc = 64;
            options.kc = 64;
            options.nc = 128;
            options.accumulate = cs.accumulate;
            options.exec = exec;
            CakeGemmInt8 gemm(test_pool(), options);
            std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
            if (cs.prepacked) {
                const PackedBInt8 packed =
                    gemm.pack_weights(b.data(), n, k, n);
                gemm.multiply_prepacked(a.data(), k, packed, c.data(), n, m);
            } else {
                gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n,
                              k);
            }
            const CakeStats& s = gemm.stats();
            EXPECT_EQ(s.blocks_executed, 48);
            EXPECT_EQ(s.a_packs, 46);
            EXPECT_EQ(s.b_packs, cs.b_packs);
            EXPECT_EQ(s.c_flushes, 12);
            EXPECT_EQ(s.c_partial_spills, 0);
            EXPECT_EQ(s.dram_read_bytes, cs.dram_read_bytes)
                << "accumulate=" << cs.accumulate
                << " prepacked=" << cs.prepacked;
            EXPECT_EQ(s.dram_write_bytes, 240000u);
            EXPECT_EQ(c[0], 3 * -2 * k);
        }
    }
}

/// Records every request and answers each with the same overrides.
class RecordingPlanSource : public TunedPlanSource {
public:
    explicit RecordingPlanSource(PlanOverrides plan) : plan_(plan) {}

    std::optional<PlanOverrides> lookup(
        const PlanRequest& request) const override
    {
        requests.push_back(request);
        return plan_;
    }

    mutable std::vector<PlanRequest> requests;

private:
    PlanOverrides plan_;
};

TEST(Int8Gemm, TunedPlanKeyedByStoredWidthAndGatedByInt8Isa)
{
    // The tuning cache buckets entries by the request's element width: an
    // int8 multiply must ask for the 1-byte i8 bucket, not the 4 bytes its
    // blocks are sized with, or a tuned f32 winner could steer it. A tuned
    // ISA applies only if the int8 kernel family can run it.
    const index_t m = 40, n = 48, k = 36;
    Rng rng(110);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
    fill_random_u8(a, rng);
    fill_random_s8(b, rng);
    const auto oracle = int_oracle(a, b, m, n, k);
    const Int8Kernel& best = best_microkernel_of<U8S8S32>();

    for (const Isa isa : kAllIsas) {
        std::optional<Int8Kernel> runnable;
        for (const Int8Kernel& kernel : supported_microkernels_of<U8S8S32>()) {
            if (kernel.isa == isa) runnable = kernel;
        }
        // Runnable CPU but kernel compiled out: the lookup would throw, as
        // it does for the float families.
        if (!runnable && KernelFamily<U8S8S32>::isa_ok(isa)) continue;

        PlanOverrides plan;
        plan.isa = isa;
        const RecordingPlanSource source(plan);
        CakeOptions options;
        options.mc = 32;  // a multiple of every int8 kernel's mr
        options.plan_source = &source;
        CakeGemmInt8 gemm(test_pool(), options);
        std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
        gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);

        ASSERT_EQ(source.requests.size(), 1u);
        EXPECT_EQ(source.requests[0].elem_bytes, 1);
        EXPECT_EQ(source.requests[0].m, m);
        const Int8Kernel& ran = runnable ? *runnable : best;
        EXPECT_EQ(gemm.stats().params.nr, ran.nr) << isa_name(isa);
        EXPECT_EQ(gemm.stats().tuned, ran.isa != best.isa) << isa_name(isa);
        for (index_t i = 0; i < m * n; ++i) {
            ASSERT_EQ(static_cast<std::int64_t>(
                          c[static_cast<std::size_t>(i)]),
                      oracle[static_cast<std::size_t>(i)])
                << isa_name(isa) << " idx=" << i;
        }
    }
}

TEST(Quant, UnsignedRoundTripWithinOneStep)
{
    Rng rng(105);
    std::vector<float> src(1000);
    for (auto& v : src) v = rng.next_float(-3.0f, 5.0f);
    std::vector<std::uint8_t> q(src.size());
    const QuantParams params =
        quantize_unsigned(src.data(), static_cast<index_t>(src.size()),
                          q.data());
    for (std::size_t i = 0; i < src.size(); ++i) {
        const float back = params.scale
            * (static_cast<float>(q[i]) - params.zero_point);
        EXPECT_NEAR(back, src[i], params.scale * 1.01f) << i;
        EXPECT_LE(q[i], 127);
    }
}

TEST(Quant, SignedSymmetricRoundTrip)
{
    Rng rng(106);
    std::vector<float> src(1000);
    for (auto& v : src) v = rng.next_float(-2.0f, 2.0f);
    std::vector<std::int8_t> q(src.size());
    const QuantParams params = quantize_signed(
        src.data(), static_cast<index_t>(src.size()), q.data());
    EXPECT_EQ(params.zero_point, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
        EXPECT_NEAR(params.scale * static_cast<float>(q[i]), src[i],
                    params.scale * 1.01f);
    }
}

TEST(Quant, ColumnSums)
{
    const std::vector<std::int8_t> b = {1, -2, 3, 4, -5, 6};  // 2x3
    std::vector<std::int64_t> sums(3);
    int8_column_sums(b.data(), 3, 2, 3, sums.data());
    EXPECT_EQ(sums, (std::vector<std::int64_t>{5, -7, 9}));
}

TEST(Int8Kernel, EverySupportedKernelInSelftest)
{
    // The int8 family rides the same selftest path as f32/f64: every
    // compiled-and-supported variant appears in the sweep and passes
    // exactly (max_error == 0 for integer kernels).
    const auto results = run_kernel_selftest();
    for (const Int8Kernel& k : supported_microkernels_of<U8S8S32>()) {
        bool found = false;
        for (const auto& r : results) {
            if (r.kernel == k.name) {
                found = true;
                EXPECT_TRUE(r.passed) << k.name;
                EXPECT_EQ(r.max_error, 0.0) << k.name;
            }
        }
        EXPECT_TRUE(found) << k.name << " missing from selftest sweep";
    }
}

TEST(Int8Kernel, SaturationEdgeExactAtTileBoundaries)
{
    // Extreme operands (a = 127, b = ±128 alternating) drive the
    // vpmaddubsw int16 pair sums to ±32512 — the exactness boundary —
    // while an (mr-1) x (nr-1) edge tile exercises the edge entry.
    // Every supported kernel must match the int64 oracle bit-exactly and
    // leave the dead C region untouched.
    const index_t kq = 3;
    for (const Int8Kernel& k : supported_microkernels_of<U8S8S32>()) {
        const index_t mr = k.mr, nr = k.nr;
        const index_t packed = k.packed_depth(kq * 4);
        AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(mr * packed),
                                      true);
        AlignedBuffer<std::int8_t> b(static_cast<std::size_t>(nr * packed),
                                     true);
        auto b_at = [&](index_t j, index_t p) -> std::int8_t& {
            return b[static_cast<std::size_t>(k.b_offset(nr, j, p))];
        };
        for (index_t p = 0; p < kq * 4; ++p) {
            for (index_t i = 0; i < mr; ++i)
                a[static_cast<std::size_t>(k.a_offset(mr, i, p))] = 127;
            for (index_t j = 0; j < nr; ++j)
                b_at(j, p) = (j + p % 4) % 2 == 0
                    ? static_cast<std::int8_t>(-128)
                    : static_cast<std::int8_t>(127);
        }

        const index_t m = mr > 1 ? mr - 1 : mr;
        const index_t n = nr > 1 ? nr - 1 : nr;
        AlignedBuffer<std::int32_t> c(static_cast<std::size_t>(mr * nr));
        const std::int32_t sentinel = -7777777;
        for (std::size_t i = 0; i < c.size(); ++i) c[i] = sentinel;
        run_microkernel_tile(k, kq, a.data(), b.data(), c.data(), nr, m, n,
                             /*accumulate=*/false, nullptr);

        for (index_t i = 0; i < mr; ++i) {
            for (index_t j = 0; j < nr; ++j) {
                const std::int32_t got =
                    c[static_cast<std::size_t>(i * nr + j)];
                if (i >= m || j >= n) {
                    ASSERT_EQ(got, sentinel)
                        << k.name << " wrote dead C(" << i << "," << j
                        << ")";
                    continue;
                }
                std::int64_t want = 0;
                for (index_t p = 0; p < kq * 4; ++p) want += 127LL * b_at(j, p);
                ASSERT_EQ(static_cast<std::int64_t>(got), want)
                    << k.name << " C(" << i << "," << j << ")";
            }
        }
    }
}

TEST(Quant, RequantRoundingExactAtTileBoundaries)
{
    // Requantization at a shape straddling the register-tile boundaries
    // (m = 2*mr - 1, n = 2*nr - 1): the dequantized result of the real
    // int8 GEMM must stay inside the static requant error bound
    // (core/fperror.hpp) at every element, including the edge tiles.
    const Int8Kernel& best = best_microkernel_of<U8S8S32>();
    const index_t m = 2 * best.mr - 1;
    const index_t n = 2 * best.nr - 1;
    const index_t k = 52;
    Rng rng(109);
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng, 0.0f, 1.0f);
    b.fill_random(rng, -1.0f, 1.0f);

    std::vector<std::uint8_t> qa(static_cast<std::size_t>(m * k));
    std::vector<std::int8_t> qb(static_cast<std::size_t>(k * n));
    const QuantParams pa = quantize_unsigned(a.data(), m * k, qa.data());
    const QuantParams pb = quantize_signed(b.data(), k * n, qb.data());

    std::vector<std::int32_t> acc(static_cast<std::size_t>(m * n), 0);
    CakeOptions options;
    cake_gemm_s8u8s32(qa.data(), qb.data(), acc.data(), m, n, k,
                      test_pool(), options);

    std::vector<std::int64_t> colsums(static_cast<std::size_t>(n));
    int8_column_sums(qb.data(), n, k, n, colsums.data());
    Matrix out(m, n);
    dequantize_gemm(acc.data(), n, m, n, pa, pb, colsums.data(),
                    out.data(), n);

    const Matrix exact = oracle_gemm(a, b);
    const double bound = int8_requant_abs_bound(k, pa, pb);
    ASSERT_GT(bound, 0.0);
    for (index_t i = 0; i < m; ++i) {
        for (index_t j = 0; j < n; ++j) {
            const double diff = std::abs(
                static_cast<double>(out.at(i, j))
                - static_cast<double>(exact.at(i, j)));
            ASSERT_LE(diff, bound) << "(" << i << "," << j << ")";
        }
    }
}

TEST(Quant, EndToEndQgemmApproximatesFloatGemm)
{
    Rng rng(107);
    const index_t m = 96, n = 80, k = 64;
    Matrix a(m, k);
    Matrix b(k, n);
    a.fill_random(rng, 0.0f, 1.0f);   // activation-like (non-negative)
    b.fill_random(rng, -1.0f, 1.0f);  // weight-like

    const Matrix approx = cake_qgemm(a, b, test_pool());
    const Matrix exact = oracle_gemm(a, b);
    // 7-bit quantization of both operands over a length-64 reduction:
    // worst-case relative error ~ (step_a + step_b) * sqrt(k) ~ 9%.
    EXPECT_LE(max_rel_diff(approx, exact, /*abs_floor=*/1.0), 0.10);
    // And it must be a real approximation, not garbage.
    EXPECT_GT(max_rel_diff(approx, exact, 1.0), 1e-6);
}

}  // namespace
}  // namespace cake
