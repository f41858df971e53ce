// Kernel registry and runtime dispatch: one registry, keyed by kernel
// family (f32, f64 and the quantized u8 x s8 -> s32 family; see
// kernel/kernel_family.hpp).
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/microkernel.hpp"

namespace cake {

/// All kernels of family F compiled into this binary (regardless of CPU
/// support), scalar first. Specialised in registry.cpp for each family.
template <typename F>
const std::vector<MicroKernelT<F>>& all_microkernels_of();
template <>
const std::vector<MicroKernel>& all_microkernels_of<float>();
template <>
const std::vector<MicroKernelD>& all_microkernels_of<double>();
template <>
const std::vector<MicroKernelT<U8S8S32>>& all_microkernels_of<U8S8S32>();

/// Deterministic dispatch order: widest ISA first (amx > avx512 > avx2 >
/// scalar), ties broken by name. std::sort is not stable, so without the
/// name tie-break two same-ISA kernels would dispatch in an order that
/// depends on registry iteration — this comparator pins it.
template <typename F>
bool microkernel_before(const MicroKernelT<F>& a, const MicroKernelT<F>& b)
{
    if (a.isa != b.isa) {
        return static_cast<int>(a.isa) > static_cast<int>(b.isa);
    }
    return std::string_view(a.name) < std::string_view(b.name);
}

/// Kernels of family F runnable on the executing CPU (by the family's
/// isa_ok rule), widest first.
template <typename F>
std::vector<MicroKernelT<F>> supported_microkernels_of()
{
    std::vector<MicroKernelT<F>> v;
    for (const auto& k : all_microkernels_of<F>()) {
        if (KernelFamily<F>::isa_ok(k.isa)) v.push_back(k);
    }
    std::sort(v.begin(), v.end(), &microkernel_before<F>);
    return v;
}

/// Kernel of family F for a specific ISA; throws cake::Error if not
/// compiled in or not supported by this CPU.
template <typename F>
const MicroKernelT<F>& microkernel_for_of(Isa isa);

/// The kernel of family F a CAKE_FORCE_ISA value ("scalar" | "avx2" |
/// "avx512" | "amx") selects. An unknown value, or a level the host cannot
/// run, throws [FORCE_ISA]. "amx" is an int8-only level: the f32 and f64
/// families run their AVX-512 entry under it.
template <typename F>
const MicroKernelT<F>& forced_microkernel_of(const std::string& value);

/// The preferred kernel of family F for this CPU: the widest supported
/// entry, or forced_microkernel_of(CAKE_FORCE_ISA) when that is set.
template <typename F>
const MicroKernelT<F>& best_microkernel_of();

/// Call `fn.template operator()<F>()` for every kernel family F, in the
/// order f32, f64, i8: the one list of families every per-family sweep
/// walks.
template <typename Fn>
void for_each_kernel_family(Fn&& fn)
{
    fn.template operator()<float>();
    fn.template operator()<double>();
    fn.template operator()<U8S8S32>();
}

/// Call `fn(kernel)` on every compiled kernel of every family, in family
/// order and registry order within a family. `fn` is generic: the
/// kernel's MicroKernelT<F>::Family names its family.
template <typename Fn>
void for_each_microkernel(Fn&& fn)
{
    for_each_kernel_family([&]<typename F>() {
        for (const auto& k : all_microkernels_of<F>()) fn(k);
    });
}

// ---- float-named convenience API (the original sgemm surface) ----

inline const std::vector<MicroKernel>& all_microkernels()
{
    return all_microkernels_of<float>();
}
inline std::vector<MicroKernel> supported_microkernels()
{
    return supported_microkernels_of<float>();
}
inline const MicroKernel& best_microkernel()
{
    return best_microkernel_of<float>();
}
inline const MicroKernel& microkernel_for(Isa isa)
{
    return microkernel_for_of<float>(isa);
}

}  // namespace cake
