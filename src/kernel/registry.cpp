#include "kernel/registry.hpp"

#include "common/env.hpp"
#include "common/error.hpp"

namespace cake {

template <>
const std::vector<MicroKernel>& all_microkernels_of<float>()
{
    static const std::vector<MicroKernel> kernels{
        scalar_microkernel(),
#if defined(CAKE_HAVE_AVX2_KERNEL)
        avx2_microkernel(),
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
        avx512_microkernel(),
#endif
    };
    return kernels;
}

template <>
const std::vector<MicroKernelD>& all_microkernels_of<double>()
{
    static const std::vector<MicroKernelD> kernels{
        scalar_microkernel_f64(),
#if defined(CAKE_HAVE_AVX2_KERNEL)
        avx2_microkernel_f64(),
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
        avx512_microkernel_f64(),
#endif
    };
    return kernels;
}

template <>
const std::vector<MicroKernelT<U8S8S32>>& all_microkernels_of<U8S8S32>()
{
    static const std::vector<MicroKernelT<U8S8S32>> kernels{
        scalar_int8_microkernel(),
#if defined(CAKE_HAVE_AVX2_KERNEL)
        avx2_int8_microkernel(),
#endif
#if defined(CAKE_HAVE_AVX512_KERNEL)
        avx512_int8_microkernel(),
#endif
#if defined(CAKE_HAVE_AMX_KERNEL)
        amx_int8_microkernel(),
#endif
    };
    return kernels;
}

template <typename F>
const MicroKernelT<F>& microkernel_for_of(Isa isa)
{
    for (const auto& k : all_microkernels_of<F>()) {
        if (k.isa == isa) {
            CAKE_CHECK_MSG(KernelFamily<F>::isa_ok(isa),
                           KernelFamily<F>::name << " ISA " << isa_name(isa)
                                                 << " not supported by CPU");
            return k;
        }
    }
    throw Error(std::string("no ") + KernelFamily<F>::name
                + " micro-kernel compiled for ISA " + isa_name(isa));
}

template <typename F>
const MicroKernelT<F>& forced_microkernel_of(const std::string& value)
{
    // parse_forced_isa raises a coded [FORCE_ISA] error on unknown values
    // — an override typo must never fall back silently — and a level this
    // host cannot run is refused the same way.
    Isa isa = parse_forced_isa(value);
    if (!isa_supported(isa)) {
        throw Error("[FORCE_ISA] CAKE_FORCE_ISA=" + value
                    + ": this host cannot run " + isa_name(isa) + " kernels");
    }
    // AMX is an int8-only level: the float families run their AVX-512
    // entry under it.
    if (isa == Isa::kAmx && !KernelFamily<F>::isa_ok(isa)) {
        isa = Isa::kAvx512;
    }
    return microkernel_for_of<F>(isa);
}

template <typename F>
const MicroKernelT<F>& best_microkernel_of()
{
    static const MicroKernelT<F> chosen = [] {
        if (auto forced = env_string("CAKE_FORCE_ISA")) {
            return forced_microkernel_of<F>(*forced);
        }
        auto supported = supported_microkernels_of<F>();
        CAKE_CHECK(!supported.empty());
        return supported.front();
    }();
    return chosen;
}

template const MicroKernelT<float>& microkernel_for_of<float>(Isa);
template const MicroKernelT<double>& microkernel_for_of<double>(Isa);
template const MicroKernelT<U8S8S32>& microkernel_for_of<U8S8S32>(Isa);
template const MicroKernelT<float>& forced_microkernel_of<float>(
    const std::string&);
template const MicroKernelT<double>& forced_microkernel_of<double>(
    const std::string&);
template const MicroKernelT<U8S8S32>& forced_microkernel_of<U8S8S32>(
    const std::string&);
template const MicroKernelT<float>& best_microkernel_of<float>();
template const MicroKernelT<double>& best_microkernel_of<double>();
template const MicroKernelT<U8S8S32>& best_microkernel_of<U8S8S32>();

}  // namespace cake
