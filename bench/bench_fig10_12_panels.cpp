// Figures 10, 11 and 12: CAKE against the GOTO baseline (the paper's MKL,
// ARMPL and OpenBLAS) on the three Table-2 machines. For each machine it
// prints (a) average DRAM bandwidth vs cores for CAKE (observed + the
// theoretical optimum of Eq. 4) and the baseline, (b) computation
// throughput vs cores with the paper's last-two-points extrapolation, and
// (c) the internal-bandwidth curve with its extrapolation.
//
// Panel (a)'s shape check is computed from its own table: from p = 1 to
// p = cores the baseline's DRAM bandwidth grows at least 2x, and at every
// p CAKE's stays within 1.5x of the Eq. 4 optimum. The binary exits 1
// when any machine's check fails.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "common/csv.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"
#include "model/extrapolate.hpp"
#include "sim/machine_sim.hpp"

namespace cake {
namespace {

struct PanelConfig {
    MachineSpec machine;
    index_t size = 0;            ///< square problem size
    int extrapolate_to = 0;      ///< core count for the dotted lines
    std::string figure;          ///< "10", "11", "12"
    std::string baseline_name;   ///< "MKL", "ARMPL", "OpenBLAS"
    std::string paper_check;     ///< the paper's reading of the trio
};

/// Fixed thresholds of panel (a)'s check.
constexpr double kMinBaselineGrowth = 2.0;
constexpr double kMaxCakeOverOptimal = 1.5;

/// Print the trio for one machine; return whether panel (a)'s check holds.
bool run_machine_panel(const PanelConfig& config)
{
    const MachineSpec& m = config.machine;
    const GemmShape shape{config.size, config.size, config.size};

    std::cout << "=== Figure " << config.figure << ": CAKE on " << m.name
              << ", " << config.size << " x " << config.size
              << " matrices ===\n\n"
              << "Machine: " << m.name << "  (Table 2: " << m.cores
              << " cores, LLC "
              << static_cast<double>(m.llc_bytes()) / (1024.0 * 1024.0)
              << " MiB, DRAM " << m.dram_bw_gbs << " GB/s)\n"
              << "Problem: " << config.size << " x " << config.size << " x "
              << config.size << "\n\n";

    std::vector<double> cake_bw, goto_bw, cake_gf, goto_gf, optimal_bw;
    for (int p = 1; p <= m.cores; ++p) {
        sim::SimConfig sc;
        sc.machine = m;
        sc.p = p;
        sc.shape = shape;
        const auto cake = sim::simulate(sc);
        sc.algorithm = sim::Algorithm::kGoto;
        const auto gto = sim::simulate(sc);
        cake_bw.push_back(cake.avg_dram_bw_gbs);
        goto_bw.push_back(gto.avg_dram_bw_gbs);
        cake_gf.push_back(cake.gflops);
        goto_gf.push_back(gto.gflops);
        // Eq. 4 optimum: the block's analytic demand at the solved shape.
        optimal_bw.push_back(required_dram_bw_gbs(m, cake.params));
    }

    std::cout << "--- Figure " << config.figure
              << "a: average DRAM bandwidth vs cores ---\n";
    Table a({"cores", config.baseline_name + " (GB/s)", "CAKE (GB/s)",
             "CAKE optimal (GB/s)"});
    double worst_over_optimal = 0;
    for (std::size_t i = 0; i < cake_bw.size(); ++i) {
        a.add_row({std::to_string(i + 1), format_number(goto_bw[i], 4),
                   format_number(cake_bw[i], 4),
                   format_number(optimal_bw[i], 4)});
        worst_over_optimal =
            std::max(worst_over_optimal, cake_bw[i] / optimal_bw[i]);
    }
    bench::print_table(a, "fig" + config.figure + "a_dram_bw");
    const double growth = goto_bw.back() / goto_bw.front();
    const bool holds = growth >= kMinBaselineGrowth
        && worst_over_optimal <= kMaxCakeOverOptimal;
    std::cout << "Shape check " << (holds ? "holds" : "FAILED") << ": "
              << config.baseline_name << "'s DRAM bandwidth grows "
              << format_number(growth, 3) << "x from 1 to " << m.cores
              << " cores (need >= " << kMinBaselineGrowth
              << "x); CAKE's peaks at " << format_number(worst_over_optimal, 3)
              << "x the Eq. 4 optimum (need <= " << kMaxCakeOverOptimal
              << "x).\n\n";

    std::cout << "--- Figure " << config.figure
              << "b: computation throughput vs cores (observed + "
                 "extrapolated) ---\n";
    const auto cake_ext =
        model::extrapolate_series(cake_gf, config.extrapolate_to);
    const auto goto_ext =
        model::extrapolate_series(goto_gf, config.extrapolate_to);
    Table b({"cores", config.baseline_name + " (GFLOP/s)", "CAKE (GFLOP/s)",
             "source"});
    for (int p = 1; p <= config.extrapolate_to; ++p) {
        b.add_row({std::to_string(p),
                   format_number(goto_ext[static_cast<std::size_t>(p - 1)], 5),
                   format_number(cake_ext[static_cast<std::size_t>(p - 1)], 5),
                   p <= m.cores ? "simulated" : "extrapolated"});
    }
    bench::print_table(b, "fig" + config.figure + "b_throughput");
    std::cout << '\n';

    std::cout << "--- Figure " << config.figure
              << "c: internal bandwidth (LLC <-> cores) vs cores ---\n";
    Table c({"cores", "internal BW (GB/s)", "source"});
    for (int p = 1; p <= config.extrapolate_to; ++p) {
        c.add_row({std::to_string(p), format_number(m.internal_bw_at(p), 5),
                   p <= m.cores ? "measured preset (pmbw digitised)"
                                : "extrapolated"});
    }
    bench::print_table(c, "fig" + config.figure + "c_internal_bw");
    std::cout << '\n' << "Paper shape check: " << config.paper_check
              << "\n\n";
    return holds;
}

}  // namespace
}  // namespace cake

int main()
{
    using namespace cake;
    const std::vector<PanelConfig> panels = {
        {intel_i9_10900k(), 23040, 20, "10", "MKL",
         "CAKE reaches comparable throughput to the\n"
         "baseline (paper: within 3%) while using a fraction of the DRAM\n"
         "bandwidth (paper: 4.5 of 40 GB/s available); internal bandwidth\n"
         "flattens past 6 cores, which bends CAKE's throughput curve."},
        {arm_cortex_a53(), 3000, 8, "11", "ARMPL",
         "the A53's 2 GB/s DRAM pins the baseline —\n"
         "it must raise DRAM usage to use more cores and cannot; CAKE\n"
         "keeps DRAM usage near-constant and scales until the flat\n"
         "internal-bandwidth curve (11c) bends its throughput."},
        {amd_ryzen_5950x(), 23040, 32, "12", "OpenBLAS",
         "the 5950X is the least-constrained machine —\n"
         "internal bandwidth grows ~50 GB/s per core, so both engines\n"
         "scale; CAKE matches OpenBLAS's peak throughput while its DRAM\n"
         "bandwidth stays flat past ~9 cores instead of growing."},
    };
    bool all_hold = true;
    for (const PanelConfig& panel : panels) {
        all_hold = run_machine_panel(panel) && all_hold;
    }
    return all_hold ? 0 : 1;
}
