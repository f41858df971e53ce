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

    // K elements the packed slivers hold: kc padded to whole k-steps.
    const index_t s = Fam::k_step;
    const index_t steps = kernel_steps<F>(kc);
    const index_t depth = steps * s;
    AlignedBuffer<typename Fam::A> a(
        static_cast<std::size_t>(kernel.mr * depth));
    AlignedBuffer<typename Fam::B> b(
        static_cast<std::size_t>(kernel.nr * depth));
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = Data::a_val(rng);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = Data::b_val(rng);

    AlignedBuffer<typename Fam::C> c(
        static_cast<std::size_t>(kernel.mr * kernel.nr), true);
    kernel.fn(steps, a.data(), b.data(), c.data(), kernel.nr, false);

    double worst = 0;
    for (index_t i = 0; i < kernel.mr; ++i) {
        for (index_t j = 0; j < kernel.nr; ++j) {
            typename Data::Ref acc = 0;
            for (index_t r = 0; r < depth; ++r) {
                const index_t q = r / s;
                const index_t d = r % s;
                acc += static_cast<typename Data::Ref>(
                           a[static_cast<std::size_t>(q * kernel.mr * s
                                                      + i * s + d)])
                    * b[static_cast<std::size_t>(q * kernel.nr * s + j * s
                                                 + d)];
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
