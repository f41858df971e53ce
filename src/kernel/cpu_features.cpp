#include "kernel/cpu_features.hpp"

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#if defined(__linux__) && defined(__x86_64__)
// glibc exports arch_prctl but its headers do not declare it. Going
// through the libc wrapper keeps raw syscall() out of the library.
extern "C" int arch_prctl(int code, unsigned long addr);
#endif

namespace cake {
namespace {

#if defined(__x86_64__) || defined(__i386__)
/// XCR0: the state components the OS saves and restores.
std::uint64_t read_xcr0()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return 0;
    if ((ecx & (1u << 27)) == 0) return 0;  // no OSXSAVE: XGETBV faults
    unsigned lo = 0, hi = 0;
    asm volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// Ask the kernel for AMX tile data for the whole process (Linux 5.16+).
bool request_tile_data()
{
#if defined(__linux__) && defined(__x86_64__)
    constexpr int kArchReqXcompPerm = 0x1023;
    constexpr unsigned long kXfeatureXtiledata = 18;
    return arch_prctl(kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
    return false;
#endif
}
#endif

}  // namespace

const char* isa_name(Isa isa)
{
    switch (isa) {
        case Isa::kScalar: return "scalar";
        case Isa::kAvx2: return "avx2";
        case Isa::kAvx512: return "avx512";
        case Isa::kAmx: return "amx";
    }
    return "unknown";
}

Isa parse_isa(const std::string& name)
{
    for (const Isa isa : kAllIsas) {
        if (name == isa_name(isa)) return isa;
    }
    throw Error("unknown ISA name: " + name);
}

Isa parse_forced_isa(const std::string& value)
{
    try {
        return parse_isa(value);
    } catch (const Error&) {
        throw Error("[FORCE_ISA] unknown CAKE_FORCE_ISA value '" + value
                    + "' (expected scalar|avx2|avx512|amx)");
    }
}

bool amx_usable(bool cpuid_tile, bool cpuid_int8, std::uint64_t xcr0,
                bool permission_granted)
{
    constexpr std::uint64_t kTileState = (1ull << 17) | (1ull << 18);
    return cpuid_tile && cpuid_int8 && (xcr0 & kTileState) == kTileState
        && permission_granted;
}

const CpuFeatures& cpu_features()
{
    static const CpuFeatures features = [] {
        CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
        // __builtin_cpu_supports consults CPUID and XGETBV (OS support).
        __builtin_cpu_init();
        f.avx2 = __builtin_cpu_supports("avx2")
            && __builtin_cpu_supports("fma");
        f.avx512f = __builtin_cpu_supports("avx512f");
        f.avx512bw = __builtin_cpu_supports("avx512bw");
        f.avx512vnni = __builtin_cpu_supports("avx512vnni");
        unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
        if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
            const bool tile = (edx & (1u << 24)) != 0;
            const bool int8 = (edx & (1u << 25)) != 0;
            // Tile data is requested only where the CPU and OS have it.
            f.amx = amx_usable(tile, int8, read_xcr0(), true)
                && request_tile_data();
        }
#endif
        return f;
    }();
    return features;
}

bool isa_supported(Isa isa)
{
    switch (isa) {
        case Isa::kScalar: return true;
        case Isa::kAvx2: return cpu_features().avx2;
        case Isa::kAvx512: return cpu_features().avx512f;
        case Isa::kAmx:
            return cpu_features().amx && cpu_features().avx512bw;
    }
    return false;
}

}  // namespace cake
