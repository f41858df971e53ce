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

/// Packed slivers of family F in entry k's own layout, `depth` K
/// elements of data and zero up to k's packed depth, at values its kernels
/// take exactly: floats in [-1, 1); int8 A in [0, 127] (the packer's
/// contract) and B in [-128, 127].
template <typename F>
void fill_slivers(const MicroKernelT<F>& k, index_t depth,
                  AlignedBuffer<typename KernelFamily<F>::A>& a,
                  AlignedBuffer<typename KernelFamily<F>::B>& b, Rng& rng)
{
    using A = typename KernelFamily<F>::A;
    using B = typename KernelFamily<F>::B;
    for (index_t p = 0; p < depth; ++p) {
        for (index_t i = 0; i < k.mr; ++i) {
            a[static_cast<std::size_t>(k.a_offset(k.mr, i, p))] =
                std::is_floating_point_v<F>
                ? static_cast<A>(rng.next_float(-1, 1))
                : static_cast<A>(rng.next_below(128));
        }
        for (index_t j = 0; j < k.nr; ++j) {
            b[static_cast<std::size_t>(k.b_offset(k.nr, j, p))] =
                std::is_floating_point_v<F>
                ? static_cast<B>(rng.next_float(-1, 1))
                : static_cast<B>(static_cast<int>(rng.next_below(256))
                                 - 128);
        }
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
            // The entry's own layout, zero-padded to its packed depth.
            const index_t packed = k.packed_depth(depth);
            AlignedBuffer<typename Fam::A> a(
                static_cast<std::size_t>(k.mr * packed), true);
            AlignedBuffer<typename Fam::B> b(
                static_cast<std::size_t>(k.nr * packed), true);
            fill_slivers<F>(k, depth, a, b, rng);
            std::vector<double> oracle(static_cast<std::size_t>(k.mr * k.nr));
            for (index_t i = 0; i < k.mr; ++i)
                for (index_t j = 0; j < k.nr; ++j)
                    for (index_t p = 0; p < depth; ++p)
                        oracle[static_cast<std::size_t>(i * k.nr + j)] +=
                            static_cast<double>(a[static_cast<std::size_t>(
                                k.a_offset(k.mr, i, p))])
                            * static_cast<double>(b[static_cast<std::size_t>(
                                k.b_offset(k.nr, j, p))]);

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
    for (const Isa isa : kAllIsas) {
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
    EXPECT_EQ(parse_forced_isa("amx"), Isa::kAmx);
    try {
        parse_forced_isa("avx1024");
        FAIL() << "unknown CAKE_FORCE_ISA value must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("[FORCE_ISA]"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("avx1024"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("amx"), std::string::npos)
            << e.what();
    }
}

TEST(CpuFeatures, AmxNeedsCpuidXcr0AndPermission)
{
    // AMX runs only when the CPU reports AMX-TILE and AMX-INT8, the OS
    // saves tile state (XCR0 bits 17 and 18) and the process was granted
    // tile data; lacking any one, the int8 family runs on VNNI or below.
    constexpr std::uint64_t kTiles = (1ull << 17) | (1ull << 18);
    EXPECT_TRUE(amx_usable(true, true, kTiles | 0xE7, true));
    EXPECT_FALSE(amx_usable(false, true, kTiles, true));
    EXPECT_FALSE(amx_usable(true, false, kTiles, true));
    EXPECT_FALSE(amx_usable(true, true, 1ull << 17, true));
    EXPECT_FALSE(amx_usable(true, true, 1ull << 18, true));
    EXPECT_FALSE(amx_usable(true, true, kTiles, false));
    EXPECT_EQ(KernelFamily<U8S8S32>::isa_ok(Isa::kAmx),
              isa_supported(Isa::kAmx));
    EXPECT_FALSE(KernelFamily<float>::isa_ok(Isa::kAmx));
    EXPECT_FALSE(KernelFamily<double>::isa_ok(Isa::kAmx));
    for (const auto& k : supported_microkernels_of<U8S8S32>()) {
        if (k.isa == Isa::kAmx) {
            EXPECT_TRUE(isa_supported(Isa::kAmx));
        }
    }
}

TEST(CpuFeatures, ForcedIsaSelectsThatLevelOrRefusesIt)
{
    // Every level this host runs selects its entry (AMX is int8-only: the
    // float families run AVX-512 under it); a level it cannot run is a
    // coded [FORCE_ISA] error, never a silent fallback.
    for (const Isa isa : kAllIsas) {
        for_each_kernel_family([&]<typename F>() {
            SCOPED_TRACE(std::string(KernelFamily<F>::name) + " "
                         + isa_name(isa));
            if (!isa_supported(isa)) {
                try {
                    forced_microkernel_of<F>(isa_name(isa));
                    FAIL() << "an unrunnable forced level must throw";
                } catch (const Error& e) {
                    EXPECT_NE(std::string(e.what()).find("[FORCE_ISA]"),
                              std::string::npos)
                        << e.what();
                }
                return;
            }
            const Isa want = isa == Isa::kAmx && !KernelFamily<F>::isa_ok(isa)
                ? Isa::kAvx512
                : isa;
            if (!KernelFamily<F>::isa_ok(want)) return;  // e.g. no VNNI
            EXPECT_EQ(forced_microkernel_of<F>(isa_name(isa)).isa, want);
        });
    }
}

TEST(KernelRegistry, EveryEntryDeclaresItsGranule)
{
    // The K padding granule sets each entry's packed depth: 1 for the
    // float entries, 4 for the int8 k-quad entries and 64 for AMX, and
    // always a multiple of the family's k_step.
    for_each_microkernel([](const auto& k) {
        using F = typename std::decay_t<decltype(k)>::Family;
        EXPECT_EQ(k.k_granule % KernelFamily<F>::k_step, 0) << k.name;
        const index_t want = std::is_floating_point_v<F> ? 1
            : k.isa == Isa::kAmx                         ? 64
                                                         : 4;
        EXPECT_EQ(k.k_granule, want) << k.name;
        EXPECT_NE(k.gather_sliver, nullptr) << k.name;
        EXPECT_NE(k.copy_sliver, nullptr) << k.name;
        EXPECT_EQ(k.packed_depth(1), k.k_granule) << k.name;
        EXPECT_EQ(k.packed_depth(2 * k.k_granule), 2 * k.k_granule)
            << k.name;
    });
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
