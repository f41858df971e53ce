#include "kernel/cpu_features.hpp"

#include "common/error.hpp"

namespace cake {

const char* isa_name(Isa isa)
{
    switch (isa) {
        case Isa::kScalar: return "scalar";
        case Isa::kAvx2: return "avx2";
        case Isa::kAvx512: return "avx512";
    }
    return "unknown";
}

Isa parse_isa(const std::string& name)
{
    if (name == "scalar") return Isa::kScalar;
    if (name == "avx2") return Isa::kAvx2;
    if (name == "avx512") return Isa::kAvx512;
    throw Error("unknown ISA name: " + name);
}

Isa parse_forced_isa(const std::string& value)
{
    try {
        return parse_isa(value);
    } catch (const Error&) {
        throw Error("[FORCE_ISA] unknown CAKE_FORCE_ISA value '" + value
                    + "' (expected scalar|avx2|avx512)");
    }
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
    }
    return false;
}

}  // namespace cake
