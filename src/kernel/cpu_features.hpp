// Runtime CPU feature detection used to dispatch micro-kernels.
#pragma once

#include <cstdint>
#include <string>

namespace cake {

/// Instruction sets the kernel library can target, narrowest first.
enum class Isa {
    kScalar,   ///< portable C++, any CPU
    kAvx2,     ///< AVX2 + FMA
    kAvx512,   ///< AVX-512F
    kAmx,      ///< AMX-TILE + AMX-INT8 tiles (int8 only; see isa_supported)
};

/// Every Isa value, narrowest first.
inline constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512,
                                   Isa::kAmx};

/// Human-readable ISA name ("scalar", "avx2", "avx512", "amx").
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
    /// AMX tiles usable by this process: amx_usable() of the CPUID bits,
    /// XCR0 and the tile-data permission requested during detection.
    bool amx = false;
};

/// The AMX rule: the CPU reports AMX-TILE and AMX-INT8 (CPUID leaf 7),
/// the OS enables tile state in XCR0 (bits 17 XTILECFG and 18
/// XTILEDATA), and the kernel granted this process tile data
/// (arch_prctl ARCH_REQ_XCOMP_PERM). All four must hold.
bool amx_usable(bool cpuid_tile, bool cpuid_int8, std::uint64_t xcr0,
                bool permission_granted);

/// Detected features of the executing CPU (cached after first call). The
/// first call also requests AMX tile-data permission for the process,
/// once, where the CPU and OS support tiles.
const CpuFeatures& cpu_features();

/// True if kernels for `isa` can run on this CPU. kAmx also needs
/// AVX-512BW, which the AMX entry's packer and edge stores use.
bool isa_supported(Isa isa);

}  // namespace cake
