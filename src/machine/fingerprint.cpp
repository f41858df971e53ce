#include "machine/fingerprint.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>

#include "common/json.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace cake {
namespace {

/// Lower-case and collapse every non-alphanumeric run to one '-', so the
/// brand is stable against whitespace quirks and safe inside keys/paths.
std::string slugify(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    bool pending_dash = false;
    for (const char ch : raw) {
        if (std::isalnum(static_cast<unsigned char>(ch)) != 0) {
            if (pending_dash && !out.empty()) out += '-';
            pending_dash = false;
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        } else {
            pending_dash = true;
        }
    }
    return out.empty() ? std::string("unknown-cpu") : out;
}

Isa detect_best_isa()
{
    if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
    if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
    return Isa::kScalar;
}

/// Capacity of the first cache level matching `pred`, 0 if absent.
template <typename Pred>
std::size_t level_bytes(const CacheHierarchy& caches, Pred&& pred)
{
    for (const CacheLevel& lvl : caches.levels) {
        if (pred(lvl)) return lvl.size_bytes;
    }
    return 0;
}

}  // namespace

std::string cpu_brand_string()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid(0x80000000u, &a, &b, &c, &d) != 0 && a >= 0x80000004u) {
        char brand[49] = {};
        unsigned int regs[12] = {};
        for (unsigned int leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[leaf * 4 + 0],
                        &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                        &regs[leaf * 4 + 3]);
        }
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        // Trim the leading/trailing padding spaces vendors ship.
        const auto first = s.find_first_not_of(" \t");
        const auto last = s.find_last_not_of(" \t");
        if (first != std::string::npos) {
            return s.substr(first, last - first + 1);
        }
    }
#endif
    return "unknown-cpu";
}

std::string MachineFingerprint::key() const
{
    std::ostringstream os;
    os << slugify(cpu_brand) << '|' << isa_name(best_isa) << "|c" << cores
       << "|l1:" << l1_bytes << "|l2:" << l2_bytes << "|llc:" << llc_bytes
       << "|bw:" << dram_bw_gbs;
    return os.str();
}

std::string MachineFingerprint::json() const
{
    std::ostringstream os;
    // cake::json names the namespace, not this member function.
    os << "{\"cpu_brand\": " << cake::json::quote(cpu_brand)
       << ", \"isa\": \"" << isa_name(best_isa) << "\""
       << ", \"cores\": " << cores << ", \"l1_bytes\": " << l1_bytes
       << ", \"l2_bytes\": " << l2_bytes << ", \"llc_bytes\": " << llc_bytes
       << ", \"dram_bw_gbs\": " << dram_bw_gbs
       << ", \"key\": " << cake::json::quote(key()) << "}";
    return os.str();
}

MachineFingerprint fingerprint_of(const MachineSpec& spec,
                                  const std::string& brand)
{
    MachineFingerprint fp;
    fp.cpu_brand = brand;
    fp.best_isa = detect_best_isa();
    fp.cores = spec.cores;
    fp.l1_bytes = level_bytes(
        spec.caches, [](const CacheLevel& l) { return l.level == 1; });
    // Deepest level private to one core — the solver's mc x kc home.
    for (const CacheLevel& lvl : spec.caches.levels) {
        if (lvl.shared_by_cores == 1) fp.l2_bytes = lvl.size_bytes;
    }
    fp.llc_bytes = spec.llc_bytes();
    fp.dram_bw_gbs = spec.dram_bw_gbs;
    return fp;
}

const MachineFingerprint& host_fingerprint()
{
    static const MachineFingerprint fp =
        fingerprint_of(host_machine(), cpu_brand_string());
    return fp;
}

}  // namespace cake
