#include "kernel/selftest.hpp"

#include <cmath>
#include <cstdint>

#include "common/aligned.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "kernel/registry.hpp"

namespace cake {
namespace {

/// Per-family self-test data: the random packed-panel values, the
/// reference accumulator type, and the error metric with its bound.
template <typename F>
struct SelfTestFamily {
    using Ref = long double;
    static F a_val(Rng& rng)
    {
        return static_cast<F>(rng.next_double() * 2 - 1);
    }
    static F b_val(Rng& rng) { return a_val(rng); }
    static double error(F got, Ref want)
    {
        return std::abs(static_cast<double>(got - static_cast<F>(want)));
    }
    static double tolerance(index_t kc)
    {
        return sizeof(F) == 4 ? gemm_tolerance(kc) : dgemm_tolerance(kc);
    }
};

template <>
struct SelfTestFamily<U8S8S32> {
    using Ref = std::int64_t;
    static std::uint8_t a_val(Rng& rng)
    {
        return static_cast<std::uint8_t>(rng.next_below(128));
    }
    static std::int8_t b_val(Rng& rng)
    {
        return static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);
    }
    static double error(std::int32_t got, Ref want)
    {
        return std::abs(static_cast<double>(got - want));
    }
    static double tolerance(index_t) { return 0; }  // integer kernels are exact
};

template <typename F>
KernelSelfTestResult test_kernel(const MicroKernelT<F>& kernel, index_t kc,
                                 Rng& rng)
{
    using Fam = KernelFamily<F>;
    using Data = SelfTestFamily<F>;
    KernelSelfTestResult result;
    result.kernel = kernel.name;
    result.family = Fam::name;

    // The slivers hold `steps` whole k-steps of data, zero-padded to the
    // entry's packed depth (its kernel may read all of it).
    const index_t s = Fam::k_step;
    const index_t steps = kernel_steps<F>(kc);
    const index_t depth = steps * s;
    const index_t packed = kernel.packed_depth(depth);
    AlignedBuffer<typename Fam::A> a(
        static_cast<std::size_t>(kernel.mr * packed), true);
    AlignedBuffer<typename Fam::B> b(
        static_cast<std::size_t>(kernel.nr * packed), true);
    auto a_at = [&](index_t i, index_t p) -> typename Fam::A& {
        return a[static_cast<std::size_t>(kernel.a_offset(kernel.mr, i, p))];
    };
    auto b_at = [&](index_t j, index_t p) -> typename Fam::B& {
        return b[static_cast<std::size_t>(kernel.b_offset(kernel.nr, j, p))];
    };
    for (index_t p = 0; p < depth; ++p) {
        for (index_t i = 0; i < kernel.mr; ++i) a_at(i, p) = Data::a_val(rng);
        for (index_t j = 0; j < kernel.nr; ++j) b_at(j, p) = Data::b_val(rng);
    }

    AlignedBuffer<typename Fam::C> c(
        static_cast<std::size_t>(kernel.mr * kernel.nr), true);
    kernel.fn(steps, a.data(), b.data(), c.data(), kernel.nr, false);

    double worst = 0;
    for (index_t i = 0; i < kernel.mr; ++i) {
        for (index_t j = 0; j < kernel.nr; ++j) {
            typename Data::Ref acc = 0;
            for (index_t p = 0; p < depth; ++p) {
                acc += static_cast<typename Data::Ref>(a_at(i, p))
                    * b_at(j, p);
            }
            worst = std::max(
                worst,
                Data::error(c[static_cast<std::size_t>(i * kernel.nr + j)],
                            acc));
        }
    }
    result.max_error = worst;
    result.passed = worst <= Data::tolerance(kc);
    return result;
}

}  // namespace

std::vector<KernelSelfTestResult> run_kernel_selftest(index_t kc,
                                                      std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<KernelSelfTestResult> results;
    // Every supported kernel of every family, in dispatch order.
    for_each_kernel_family([&]<typename F>() {
        for (const auto& k : supported_microkernels_of<F>())
            results.push_back(test_kernel(k, kc, rng));
    });
    return results;
}

bool all_kernels_ok()
{
    for (const auto& r : run_kernel_selftest()) {
        if (!r.passed) return false;
    }
    return true;
}

}  // namespace cake
