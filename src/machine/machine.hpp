// Machine descriptors: the paper's Table 2 CPUs as presets, plus host
// autodetection. These feed the CB-block solver (src/core/tiling), the
// analytical model (src/model) and the architecture simulator (src/sim).
#pragma once

#include <string>
#include <vector>

#include "cache/topology.hpp"
#include "common/types.hpp"

namespace cake {

/// Full description of a target machine.
struct MachineSpec {
    std::string name;
    int cores = 1;
    double freq_ghz = 1.0;

    CacheHierarchy caches;

    double dram_gib = 8.0;      ///< main-memory capacity (GiB)
    double dram_bw_gbs = 10.0;  ///< external (DRAM) streaming bandwidth, GB/s

    /// Effective DRAM bandwidth for read-modify-write round trips (the
    /// partial-result streaming GOTO performs, §4.1: "DRAM streaming can
    /// dominate IO"). Desktop memory controllers sustain RMW streams near
    /// peak; low-power in-order SoCs are latency-bound and achieve a small
    /// fraction. 0 means "same as dram_bw_gbs".
    double dram_rmw_bw_gbs = 0.0;

    /// Effective bandwidth for RMW round-trip traffic.
    [[nodiscard]] double rmw_bw_gbs() const
    {
        return dram_rmw_bw_gbs > 0.0 ? dram_rmw_bw_gbs : dram_bw_gbs;
    }

    /// Sustained single-core GEMM throughput in GFLOP/s. This is the
    /// simulator's per-core compute rate: the paper's "one tile
    /// multiplication per unit time" calibrated to the measured
    /// single-core points in Figs 10b/11b/12b.
    double core_gflops = 10.0;

    /// Measured internal bandwidth (LLC <-> cores, GB/s) at p = 1..cores,
    /// the paper's pmbw curves (Figs 10c/11c/12c). Element i is p = i+1.
    std::vector<double> internal_bw_gbs;

    /// Last-level cache capacity in bytes — the "local memory" that holds
    /// the three CB-block IO surfaces.
    [[nodiscard]] std::size_t llc_bytes() const
    {
        return caches.llc().size_bytes;
    }

    /// Internal bandwidth available at p cores (GB/s). Values beyond the
    /// measured range are linearly extrapolated from the last two points
    /// (paper's extrapolation protocol).
    [[nodiscard]] double internal_bw_at(int p) const;

    /// Peak multi-core compute throughput at p cores (GFLOP/s).
    [[nodiscard]] double peak_gflops(int p) const
    {
        return core_gflops * p;
    }
};

/// Intel i9-10900K preset (Table 2 row 1): 10 cores, L1 32K / L2 256K /
/// L3 20 MiB, 32 GB DRAM @ 40 GB/s. Internal-BW curve digitised from
/// Fig. 10c (flattens past 6 cores).
MachineSpec intel_i9_10900k();

/// AMD Ryzen 9 5950X preset (Table 2 row 2): 16 cores, L1 32K / L2 512K /
/// L3 64 MiB, 128 GB DRAM @ 47 GB/s. Internal BW grows ~50 GB/s per core
/// (Fig. 12c).
MachineSpec amd_ryzen_5950x();

/// ARM Cortex-A53 preset (Table 2 row 3): 4 cores, L1 16K / L2 512K (LLC,
/// no L3), 1 GB DRAM @ 2 GB/s. Internal BW nearly flat past 2 cores
/// (Fig. 11c).
MachineSpec arm_cortex_a53();

/// Best-effort descriptor for the executing host (detected caches, core
/// count; bandwidths default conservatively and can be overridden by the
/// CAKE_DRAM_BW_GBS environment variable).
MachineSpec host_machine();

/// A hypothetical DNN accelerator in the spirit of the paper's §6.1
/// ("CAKE is not limited to these platforms"): a 64-unit compute grid with
/// a large shared on-chip SRAM as the local memory and configurable
/// external bandwidth. `hbm == true` gives it an HBM-class 300 GB/s link;
/// `false` a cost-down 30 GB/s DDR link — the case where CB shaping is
/// the difference between a starved and a saturated array.
MachineSpec accelerator_64pe(bool hbm);

/// All three paper presets, in Table 2 order.
std::vector<MachineSpec> table2_machines();

/// Preset lookup by name ("intel", "amd", "arm", "host", or a Table-2
/// spelling such as "intel-i9", "amd-5950x", "arm-a53"); throws
/// cake::Error on unknown names.
MachineSpec machine_by_name(const std::string& name);

}  // namespace cake
