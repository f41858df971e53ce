// Micro-kernel tests: every compiled ISA variant against a double-precision
// oracle on packed panels, full tiles across kc depths, and every edge
// tile of every family's edge entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/aligned.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "kernel/cpu_features.hpp"
#include "kernel/microkernel.hpp"
#include "kernel/registry.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

/// Oracle for one packed-panel micro-kernel call.
std::vector<double> oracle_tile(const float* a, const float* b, index_t mr,
                                index_t nr, index_t kc)
{
    std::vector<double> acc(static_cast<std::size_t>(mr * nr), 0.0);
    for (index_t p = 0; p < kc; ++p) {
        for (index_t i = 0; i < mr; ++i) {
            for (index_t j = 0; j < nr; ++j) {
                acc[static_cast<std::size_t>(i * nr + j)] +=
                    static_cast<double>(a[p * mr + i]) * b[p * nr + j];
            }
        }
    }
    return acc;
}

class KernelParamTest
    : public ::testing::TestWithParam<std::tuple<int, index_t>> {};

TEST_P(KernelParamTest, MatchesOracleFullTile)
{
    const auto [kernel_index, kc] = GetParam();
    const auto kernels = supported_microkernels();
    ASSERT_LT(static_cast<std::size_t>(kernel_index), kernels.size());
    const MicroKernel& k = kernels[static_cast<std::size_t>(kernel_index)];

    Rng rng(1000 + static_cast<std::uint64_t>(kc));
    AlignedBuffer<float> a(static_cast<std::size_t>(k.mr * kc));
    AlignedBuffer<float> b(static_cast<std::size_t>(k.nr * kc));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.next_float(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.next_float(-1, 1);

    AlignedBuffer<float> c(static_cast<std::size_t>(k.mr * k.nr), true);
    k.fn(kc, a.data(), b.data(), c.data(), k.nr, /*accumulate=*/false);

    const auto oracle = oracle_tile(a.data(), b.data(), k.mr, k.nr, kc);
    const double tol = gemm_tolerance(kc);
    for (index_t i = 0; i < k.mr * k.nr; ++i) {
        EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                    oracle[static_cast<std::size_t>(i)], tol)
            << "kernel=" << k.name << " kc=" << kc << " idx=" << i;
    }
}

TEST_P(KernelParamTest, AccumulateAddsIntoC)
{
    const auto [kernel_index, kc] = GetParam();
    const auto kernels = supported_microkernels();
    ASSERT_LT(static_cast<std::size_t>(kernel_index), kernels.size());
    const MicroKernel& k = kernels[static_cast<std::size_t>(kernel_index)];

    Rng rng(2000 + static_cast<std::uint64_t>(kc));
    AlignedBuffer<float> a(static_cast<std::size_t>(k.mr * kc));
    AlignedBuffer<float> b(static_cast<std::size_t>(k.nr * kc));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.next_float(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.next_float(-1, 1);

    AlignedBuffer<float> c(static_cast<std::size_t>(k.mr * k.nr));
    for (std::size_t i = 0; i < c.size(); ++i)
        c[i] = static_cast<float>(i % 5);
    k.fn(kc, a.data(), b.data(), c.data(), k.nr, /*accumulate=*/true);

    const auto oracle = oracle_tile(a.data(), b.data(), k.mr, k.nr, kc);
    const double tol = gemm_tolerance(kc);
    for (index_t i = 0; i < k.mr * k.nr; ++i) {
        EXPECT_NEAR(c[static_cast<std::size_t>(i)],
                    oracle[static_cast<std::size_t>(i)]
                        + static_cast<double>(i % 5),
                    tol);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAndDepths, KernelParamTest,
    ::testing::Combine(
        ::testing::Range(0, static_cast<int>(supported_microkernels().size())),
        ::testing::Values<index_t>(1, 2, 3, 7, 16, 64, 192, 333)),
    [](const auto& info) {
        const auto kernels = supported_microkernels();
        return std::string(
                   kernels[static_cast<std::size_t>(std::get<0>(info.param))]
                       .name)
            + "_kc" + std::to_string(std::get<1>(info.param));
    });

/// Packed slivers of family F at values its kernels take exactly: floats
/// in [-1, 1); int8 A in [0, 127] (the packer's contract) and B in
/// [-128, 127].
template <typename F>
void fill_slivers(AlignedBuffer<typename KernelFamily<F>::A>& a,
                  AlignedBuffer<typename KernelFamily<F>::B>& b, Rng& rng)
{
    if constexpr (std::is_floating_point_v<F>) {
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = static_cast<F>(rng.next_float(-1, 1));
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<F>(rng.next_float(-1, 1));
    } else {
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = static_cast<std::uint8_t>(rng.next_below(128));
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = static_cast<std::int8_t>(
                static_cast<int>(rng.next_below(256)) - 128);
    }
}

/// First disagreement of an edge-entry call with the oracle, or "": the
/// live m x n corner must hold oracle (+ the preload when accumulating),
/// exact for int8; every other element of the mr x ldc buffer, the gap
/// columns past nr included, must still hold the sentinel.
template <typename F>
std::string edge_mismatch(const MicroKernelT<F>& k,
                          const std::vector<double>& oracle,
                          const AlignedBuffer<typename KernelFamily<F>::C>& c,
                          index_t ldc, index_t m, index_t n, bool accumulate,
                          double tol)
{
    using C = typename KernelFamily<F>::C;
    for (index_t i = 0; i < k.mr; ++i) {
        for (index_t j = 0; j < ldc; ++j) {
            const C got = c[static_cast<std::size_t>(i * ldc + j)];
            const bool live = i < m && j < n;
            double want = -9.0;
            if (live) {
                want = oracle[static_cast<std::size_t>(i * k.nr + j)]
                    + (accumulate ? static_cast<double>((i + j) % 7 - 3) : 0);
            }
            const double err = static_cast<double>(got) - want;
            if (live ? (err <= tol && err >= -tol) : err == 0) continue;
            std::ostringstream os;
            os << "m=" << m << " n=" << n << " accumulate=" << accumulate
               << (live ? " live" : " dead") << " C(" << i << "," << j
               << "): got " << static_cast<double>(got) << ", want " << want;
            return os.str();
        }
    }
    return "";
}

TEST(KernelEdge, PartialTilesMatchOracle)
{
    // Every supported entry of every family, every m x n tile (the full
    // one too), overwrite and accumulate, through the edge entry itself.
    // C has ldc = nr + 3 and holds a sentinel everywhere outside the live
    // corner, so a row or a store mask one lane too wide shows.
    for_each_kernel_family([]<typename F>() {
        using Fam = KernelFamily<F>;
        using C = typename Fam::C;
        const index_t steps = 9;
        const index_t depth = steps * Fam::k_step;
        const double tol =
            std::is_floating_point_v<F> ? gemm_tolerance(depth) : 0.0;
        for (const MicroKernelT<F>& k : supported_microkernels_of<F>()) {
            SCOPED_TRACE(k.name);
            ASSERT_NE(k.edge, nullptr);
            Rng rng(77);
            AlignedBuffer<typename Fam::A> a(
                static_cast<std::size_t>(k.mr * depth));
            AlignedBuffer<typename Fam::B> b(
                static_cast<std::size_t>(k.nr * depth));
            fill_slivers<F>(a, b, rng);
            // Packed layout: a[q*mr*s + i*s + d], b[q*nr*s + j*s + d].
            std::vector<double> oracle(static_cast<std::size_t>(k.mr * k.nr));
            for (index_t i = 0; i < k.mr; ++i)
                for (index_t j = 0; j < k.nr; ++j)
                    for (index_t q = 0; q < steps; ++q)
                        for (index_t d = 0; d < Fam::k_step; ++d)
                            oracle[static_cast<std::size_t>(i * k.nr + j)] +=
                                static_cast<double>(a[static_cast<std::size_t>(
                                    (q * k.mr + i) * Fam::k_step + d)])
                                * static_cast<double>(
                                    b[static_cast<std::size_t>(
                                        (q * k.nr + j) * Fam::k_step + d)]);

            const index_t ldc = k.nr + 3;
            AlignedBuffer<C> c(static_cast<std::size_t>(k.mr * ldc));
            for (index_t m = 1; m <= k.mr; ++m) {
                for (index_t n = 1; n <= k.nr; ++n) {
                    for (const bool acc : {false, true}) {
                        for (index_t i = 0; i < k.mr; ++i)
                            for (index_t j = 0; j < ldc; ++j)
                                c[static_cast<std::size_t>(i * ldc + j)] =
                                    static_cast<C>(acc && i < m && j < n
                                                       ? (i + j) % 7 - 3
                                                       : -9);
                        k.edge(steps, a.data(), b.data(), c.data(), ldc, m,
                               n, acc);
                        ASSERT_EQ(edge_mismatch<F>(k, oracle, c, ldc, m, n,
                                                   acc, tol),
                                  "");
                    }
                }
            }
        }
    });
}

// The registry tests below run over every kernel family (f32, f64, i8)
// through for_each_kernel_family: one registry, one set of properties.

TEST(KernelRegistry, ScalarAlwaysPresent)
{
    for_each_kernel_family([]<typename F>() {
        SCOPED_TRACE(KernelFamily<F>::name);
        const auto kernels = supported_microkernels_of<F>();
        ASSERT_FALSE(kernels.empty());
        bool has_scalar = false;
        for (const auto& k : kernels) has_scalar |= k.isa == Isa::kScalar;
        EXPECT_TRUE(has_scalar);
    });
}

TEST(KernelRegistry, BestIsWidestSupported)
{
    for_each_kernel_family([]<typename F>() {
        SCOPED_TRACE(KernelFamily<F>::name);
        const auto kernels = supported_microkernels_of<F>();
        const MicroKernelT<F>& best = best_microkernel_of<F>();
        // Unless overridden by env, best must be the front (widest) entry.
        if (!std::getenv("CAKE_FORCE_ISA")) {
            EXPECT_EQ(std::string(best.name),
                      std::string(kernels.front().name));
        }
        EXPECT_GE(best.mr, 1);
        EXPECT_GE(best.nr, 1);
    });
}

TEST(KernelRegistry, EveryEntryNamesBothComputeEntries)
{
    // run_microkernel_tile has no fallback: a full tile calls fn, any
    // other tile edge, for every compiled entry of every family.
    for_each_microkernel([](const auto& k) {
        EXPECT_NE(k.fn, nullptr) << k.name;
        EXPECT_NE(k.edge, nullptr) << k.name;
    });
}

TEST(KernelRegistry, EveryEntryFitsTheStackTile)
{
    // The executor computes alpha/beta-scaled tiles into a stack array of
    // kMaxTileElems elements, for every compiled entry of every family.
    for_each_microkernel([](const auto& k) {
        EXPECT_LE(k.mr * k.nr, kMaxTileElems) << k.name;
    });
}

TEST(KernelRegistry, IsaNamesRoundTrip)
{
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        EXPECT_EQ(parse_isa(isa_name(isa)), isa);
    }
    EXPECT_THROW(parse_isa("neon"), Error);
}

TEST(KernelRegistry, AllCompiledKernelsHaveDistinctNames)
{
    // Distinct across families too: kernel_ir_for binds an IR to its
    // kernel by name alone.
    std::vector<std::string> names;
    for_each_microkernel([&](const auto& k) { names.push_back(k.name); });
    EXPECT_GE(names.size(), 3u);  // scalar f32/f64/i8 always compiled
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            EXPECT_NE(names[i], names[j]);
}

TEST(CpuFeatures, ConsistentWithRegistry)
{
    // Every supported kernel's ISA must satisfy its family's support rule,
    // and that rule is never looser than isa_supported.
    for_each_kernel_family([]<typename F>() {
        for (const auto& k : supported_microkernels_of<F>()) {
            EXPECT_TRUE(KernelFamily<F>::isa_ok(k.isa)) << k.name;
            EXPECT_TRUE(isa_supported(k.isa)) << k.name;
        }
        EXPECT_TRUE(KernelFamily<F>::isa_ok(Isa::kScalar));
    });
    // The int8 AVX-512 kernel is vpdpbusd: it needs BW and VNNI on top
    // of F.
    EXPECT_EQ(KernelFamily<U8S8S32>::isa_ok(Isa::kAvx512),
              cpu_features().avx512f && cpu_features().avx512bw
                  && cpu_features().avx512vnni);
    EXPECT_TRUE(isa_supported(Isa::kScalar));
}

TEST(CpuFeatures, ForcedIsaRejectsUnknownValuesWithCodedError)
{
    // The single choke point every dispatcher routes CAKE_FORCE_ISA
    // through: a typo'd value must raise the coded [FORCE_ISA] error,
    // never fall back silently to autodetection.
    EXPECT_EQ(parse_forced_isa("scalar"), Isa::kScalar);
    EXPECT_EQ(parse_forced_isa("avx2"), Isa::kAvx2);
    EXPECT_EQ(parse_forced_isa("avx512"), Isa::kAvx512);
    try {
        parse_forced_isa("avx1024");
        FAIL() << "unknown CAKE_FORCE_ISA value must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("[FORCE_ISA]"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("avx1024"), std::string::npos)
            << e.what();
    }
}

TEST(KernelRegistry, SupportedOrderingHasDeterministicTieBreak)
{
    // supported_microkernels_of sorts widest ISA first with a name
    // tie-break, so two same-ISA kernels order lexicographically — the
    // dispatch winner cannot depend on registration order.
    for_each_kernel_family([]<typename F>() {
        SCOPED_TRACE(KernelFamily<F>::name);
        const MicroKernelT<F> a{"zeta_6x16", Isa::kAvx2, 6, 16, nullptr};
        const MicroKernelT<F> b{"alpha_6x16", Isa::kAvx2, 6, 16, nullptr};
        EXPECT_TRUE(microkernel_before(b, a));
        EXPECT_FALSE(microkernel_before(a, b));
        // Wider ISA always sorts ahead regardless of name.
        const MicroKernelT<F> wide{"zzz_14x32", Isa::kAvx512, 14, 32,
                                   nullptr};
        EXPECT_TRUE(microkernel_before(wide, b));

        const auto supported = supported_microkernels_of<F>();
        for (std::size_t i = 0; i + 1 < supported.size(); ++i) {
            EXPECT_TRUE(microkernel_before(supported[i], supported[i + 1])
                        || !microkernel_before(supported[i + 1],
                                               supported[i]))
                << supported[i].name << " vs " << supported[i + 1].name;
        }
    });
}

}  // namespace
}  // namespace cake
