// The memory-wall thesis, directly: sweep the machine's DRAM bandwidth
// and find — by binary search on the simulator — the minimum bandwidth
// each algorithm needs to reach 90% of its compute-bound throughput at
// each core count. GOTO's requirement grows ~linearly with cores (§4.1);
// CAKE's grows sub-linearly (Eq. 4): "CAKE can improve MM computation
// throughput without having to increase external DRAM bandwidth." Exits 1
// when the table's shape check fails.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_io.hpp"
#include "common/csv.hpp"
#include "machine/machine.hpp"
#include "sim/machine_sim.hpp"

namespace {

using namespace cake;

double min_bw_for_target(const MachineSpec& base, int p, index_t size,
                         sim::Algorithm algo, double target_frac)
{
    // Target: `target_frac` of the throughput achieved with effectively
    // unlimited DRAM bandwidth.
    MachineSpec unlimited = base;
    unlimited.dram_bw_gbs = 1e6;
    unlimited.dram_rmw_bw_gbs = 1e6;
    sim::SimConfig config;
    config.machine = unlimited;
    config.p = p;
    config.shape = {size, size, size};
    config.algorithm = algo;
    const double peak = sim::simulate(config).gflops;
    const double target = target_frac * peak;

    double lo = 0.01, hi = 1024.0;
    for (int iter = 0; iter < 30; ++iter) {
        const double mid = 0.5 * (lo + hi);
        MachineSpec m = base;
        m.dram_bw_gbs = mid;
        m.dram_rmw_bw_gbs = mid * 0.9;
        config.machine = m;
        if (sim::simulate(config).gflops >= target) hi = mid;
        else lo = mid;
    }
    return hi;
}

/// GOTO's need may stray this factor from linear growth in p.
constexpr double kLinearSlack = 1.5;
/// CAKE's need grows at most this share of the core-count growth.
constexpr double kMaxCakeGrowthShare = 0.5;

}  // namespace

int main()
{
    using namespace cake;
    const MachineSpec amd = amd_ryzen_5950x();
    const index_t size = 4608;

    std::cout << "=== Minimum DRAM bandwidth to reach 90% of compute-bound "
                 "throughput ===\n"
              << "(AMD 5950X compute/cache profile, " << size
              << "^3 MM, binary search on the simulator)\n\n";

    const std::vector<int> cores{1, 2, 4, 8, 16};
    std::vector<double> goto_need, cake_need;
    Table table({"cores", "GOTO needs (GB/s)", "CAKE needs (GB/s)",
                 "ratio"});
    for (int p : cores) {
        const double g =
            min_bw_for_target(amd, p, size, sim::Algorithm::kGoto, 0.9);
        const double c =
            min_bw_for_target(amd, p, size, sim::Algorithm::kCake, 0.9);
        goto_need.push_back(g);
        cake_need.push_back(c);
        table.add_row({std::to_string(p), format_number(g, 4),
                       format_number(c, 4), format_number(g / c, 4) + "x"});
    }
    bench::print_table(table, "bw_sweep_min_dram");

    // Shape check over the table: GOTO's need grows about linearly in p
    // (its per-flop DRAM traffic is fixed), CAKE's sub-linearly (the
    // solver answers extra cores with bigger, higher-intensity blocks),
    // and CAKE needs less at every core count.
    const double core_growth =
        static_cast<double>(cores.back()) / cores.front();
    const double goto_growth = goto_need.back() / goto_need.front();
    const double cake_growth = cake_need.back() / cake_need.front();
    double min_ratio = goto_need.front() / cake_need.front();
    double max_ratio = min_ratio;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const double ratio = goto_need[i] / cake_need[i];
        min_ratio = std::min(min_ratio, ratio);
        max_ratio = std::max(max_ratio, ratio);
    }
    const bool holds = goto_growth >= core_growth / kLinearSlack
        && goto_growth <= core_growth * kLinearSlack
        && cake_growth <= core_growth * kMaxCakeGrowthShare
        && min_ratio > 1.0;
    std::cout << "\nShape check " << (holds ? "holds" : "FAILED")
              << ": from " << cores.front() << " to " << cores.back()
              << " cores GOTO's need grows " << format_number(goto_growth, 3)
              << "x (need within " << kLinearSlack << "x of "
              << format_number(core_growth, 3) << "x)\nand CAKE's "
              << format_number(cake_growth, 3) << "x (need <= "
              << format_number(core_growth * kMaxCakeGrowthShare, 3)
              << "x); CAKE needs " << format_number(min_ratio, 3) << "-"
              << format_number(max_ratio, 3)
              << "x less at every core count (need > 1x).\n"
                 "The paper's constant-bandwidth property as a provisioning "
                 "rule.\n";
    return holds ? 0 : 1;
}
