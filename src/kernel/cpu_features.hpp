// Runtime CPU feature detection used to dispatch micro-kernels.
#pragma once

#include <string>

namespace cake {

/// Instruction sets the kernel library can target.
enum class Isa {
    kScalar,   ///< portable C++, any CPU
    kAvx2,     ///< AVX2 + FMA
    kAvx512,   ///< AVX-512F
};

/// Human-readable ISA name ("scalar", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parse an ISA name; throws cake::Error on unknown names.
Isa parse_isa(const std::string& name);

/// Parse a CAKE_FORCE_ISA override. The single choke point every
/// dispatcher (float/double registry, int8 family) routes the env var
/// through: an unknown value throws a cake::Error carrying the stable
/// [FORCE_ISA] code — never a silent fallback to autodetection.
Isa parse_forced_isa(const std::string& value);

/// CPU capabilities detected once at startup.
struct CpuFeatures {
    bool avx2 = false;      ///< AVX2 and FMA both present and OS-enabled
    bool avx512f = false;   ///< AVX-512 Foundation present and OS-enabled
    bool avx512bw = false;  ///< AVX-512 Byte/Word (int8 kernels)
    bool avx512vnni = false;  ///< AVX-512 VNNI (vpdpbusd, int8 kernel)
};

/// Detected features of the executing CPU (cached after first call).
const CpuFeatures& cpu_features();

/// True if kernels for `isa` can run on this CPU.
bool isa_supported(Isa isa);

}  // namespace cake
