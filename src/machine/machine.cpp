#include "machine/machine.hpp"

#include <thread>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"

namespace cake {

double MachineSpec::internal_bw_at(int p) const
{
    CAKE_CHECK(p >= 1);
    CAKE_CHECK(!internal_bw_gbs.empty());
    const auto n = static_cast<int>(internal_bw_gbs.size());
    if (p <= n) return internal_bw_gbs[static_cast<std::size_t>(p - 1)];
    if (n == 1) return internal_bw_gbs[0];
    // Paper protocol: extrapolate from the last two measured points.
    const LineFit line = line_through(
        n - 1, internal_bw_gbs[static_cast<std::size_t>(n - 2)], n,
        internal_bw_gbs[static_cast<std::size_t>(n - 1)]);
    return line(p);
}

MachineSpec intel_i9_10900k()
{
    MachineSpec m;
    m.name = "Intel i9-10900K";
    m.cores = 10;
    m.freq_ghz = 4.9;  // all-core turbo
    m.caches.levels = {
        {1, 32 * 1024, 64, 8, 1},
        {2, 256 * 1024, 64, 4, 1},
        {3, 20 * 1024 * 1024, 64, 16, 10},
    };
    m.dram_gib = 32.0;
    m.dram_bw_gbs = 40.0;
    m.dram_rmw_bw_gbs = 36.0;  // desktop DDR4 sustains RMW near peak
    // Fig 10b: single-core CAKE/MKL throughput ~125 GFLOP/s.
    m.core_gflops = 125.0;
    // Fig 10c: ~75 GB/s per core up to 6 cores, then ~+25 GB/s per core.
    m.internal_bw_gbs = {75, 150, 225, 300, 375, 450, 478, 505, 530, 555};
    return m;
}

MachineSpec amd_ryzen_5950x()
{
    MachineSpec m;
    m.name = "AMD Ryzen 9 5950X";
    m.cores = 16;
    m.freq_ghz = 4.2;
    m.caches.levels = {
        {1, 32 * 1024, 64, 8, 1},
        {2, 512 * 1024, 64, 8, 1},
        {3, 64 * 1024 * 1024, 64, 16, 16},
    };
    m.dram_gib = 128.0;
    m.dram_bw_gbs = 47.0;
    m.dram_rmw_bw_gbs = 42.0;
    // Fig 12b: ~75 GFLOP/s per core up to 16 cores.
    m.core_gflops = 75.0;
    // Fig 12c: internal BW grows roughly linearly, ~50 GB/s per core.
    m.internal_bw_gbs.resize(16);
    for (int p = 1; p <= 16; ++p)
        m.internal_bw_gbs[static_cast<std::size_t>(p - 1)] = 50.0 * p;
    return m;
}

MachineSpec arm_cortex_a53()
{
    MachineSpec m;
    m.name = "ARM Cortex-A53";
    m.cores = 4;
    m.freq_ghz = 1.4;
    // No L3: the shared L2 is the last-level "local memory" (paper §5.2).
    m.caches.levels = {
        {1, 16 * 1024, 64, 4, 1},
        {2, 512 * 1024, 64, 16, 4},
    };
    m.dram_gib = 1.0;
    m.dram_bw_gbs = 2.0;
    // In-order core + LPDDR: partial-result read-modify-write round trips
    // are latency-bound and reach only a fraction of streaming bandwidth.
    m.dram_rmw_bw_gbs = 0.6;
    // Fig 11b: single-core CAKE throughput ~2.7 GFLOP/s.
    m.core_gflops = 2.7;
    // Fig 11c: ~10 GB/s at 1-2 cores, then nearly flat.
    m.internal_bw_gbs = {10.0, 12.0, 12.5, 13.0};
    return m;
}

MachineSpec host_machine()
{
    MachineSpec m;
    m.name = "host";
    m.cores = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    m.freq_ghz = 2.1;
    m.caches = detect_host_caches();
    m.dram_gib = 16.0;
    m.dram_bw_gbs = 12.0;
    m.dram_rmw_bw_gbs = 8.0;
    if (auto bw = env_long("CAKE_DRAM_BW_GBS")) {
        m.dram_bw_gbs = static_cast<double>(*bw);
    }
    m.core_gflops = 40.0;
    m.internal_bw_gbs.assign(static_cast<std::size_t>(m.cores), 0.0);
    for (int p = 1; p <= m.cores; ++p)
        m.internal_bw_gbs[static_cast<std::size_t>(p - 1)] = 40.0 * p;
    return m;
}

MachineSpec accelerator_64pe(bool hbm)
{
    MachineSpec m;
    m.name = hbm ? "accel-64pe-hbm" : "accel-64pe-ddr";
    m.cores = 64;  // processing elements
    m.freq_ghz = 1.0;
    // Per-PE scratchpad plus one large shared SRAM as the "local memory";
    // accelerators have no LRU caches, but the capacity planning of Eq. 1
    // applies unchanged.
    m.caches.levels = {
        {1, 64 * 1024, 64, 8, 1},              // PE-local scratchpad
        {2, 48 * 1024 * 1024, 64, 16, 64},     // shared on-chip SRAM
    };
    m.dram_gib = 16.0;
    m.dram_bw_gbs = hbm ? 300.0 : 30.0;
    m.dram_rmw_bw_gbs = hbm ? 250.0 : 20.0;
    m.core_gflops = 64.0;  // one 8x8 MAC tile per cycle per PE
    // On-chip networks scale with the PE grid.
    m.internal_bw_gbs.resize(64);
    for (int p = 1; p <= 64; ++p)
        m.internal_bw_gbs[static_cast<std::size_t>(p - 1)] = 40.0 * p;
    return m;
}

std::vector<MachineSpec> table2_machines()
{
    return {intel_i9_10900k(), amd_ryzen_5950x(), arm_cortex_a53()};
}

MachineSpec machine_by_name(const std::string& name)
{
    if (name == "intel" || name == "i9" || name == "intel_i9_10900k"
        || name == "intel-i9" || name == "intel-i9-10900k")
        return intel_i9_10900k();
    if (name == "amd" || name == "5950x" || name == "amd_ryzen_5950x"
        || name == "amd-5950x")
        return amd_ryzen_5950x();
    if (name == "arm" || name == "a53" || name == "arm_cortex_a53"
        || name == "arm-a53")
        return arm_cortex_a53();
    if (name == "host") return host_machine();
    throw Error("unknown machine name: " + name);
}

}  // namespace cake
