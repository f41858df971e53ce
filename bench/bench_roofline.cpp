// Roofline view: attainable throughput = min(peak, AI * DRAM bandwidth).
// Prints each Table-2 machine's roofline plus the operating points of the
// solved CAKE CB block and the GOTO blocking — CAKE's analytically chosen
// arithmetic intensity always lands in (or beyond) the compute-bound
// region, which is the whole point of CB shaping (Fig. 4).
//
// Second table: the static compute roof of every compiled micro-kernel
// (model/kernel_peak). Traffic measured on a simulated hierarchy is
// memsim's job (bench_fig7_stalls, bench_schedule_traffic).
#include <iostream>

#include "bench_io.hpp"
#include "common/csv.hpp"
#include "core/tiling.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"
#include "model/kernel_peak.hpp"
#include "model/throughput.hpp"

namespace {

using namespace cake;

/// GOTO's whole-problem arithmetic intensity for a large square MM:
/// flops / DRAM bytes of the GOTO plan.
double goto_ai(const MachineSpec& m, index_t size)
{
    const GemmShape shape{size, size, size};
    const auto traffic = model::cake_traffic(
        shape, goto_plan_params(m, m.cores, 6, 16), ScheduleKind::kGoto);
    return shape.flops() / static_cast<double>(traffic.total_bytes());
}

double cake_ai(const MachineSpec& m, index_t size)
{
    const CbBlockParams params = compute_cb_block(m, m.cores, 6, 16);
    const GemmShape shape{size, size, size};
    const auto traffic = model::cake_traffic(shape, params);
    return shape.flops() / static_cast<double>(traffic.total_bytes());
}

}  // namespace

int main()
{
    using namespace cake;
    std::cout << "=== Roofline operating points (whole-problem arithmetic "
                 "intensity) ===\n\n";

    Table table({"machine", "peak (GFLOP/s)", "DRAM (GB/s)",
                 "ridge AI (flop/B)", "GOTO AI", "GOTO attainable",
                 "CAKE AI", "CAKE attainable"});
    for (const MachineSpec& m : table2_machines()) {
        const index_t size = m.dram_gib < 2 ? 3000 : 23040;
        const double peak = m.peak_gflops(m.cores);
        const double ridge = peak / m.dram_bw_gbs;
        const double gai = goto_ai(m, size);
        const double cai = cake_ai(m, size);
        const double g_att = std::min(peak, gai * m.dram_bw_gbs);
        const double c_att = std::min(peak, cai * m.dram_bw_gbs);
        table.add_row({m.name, format_number(peak, 5),
                       format_number(m.dram_bw_gbs, 4),
                       format_number(ridge, 4), format_number(gai, 4),
                       format_number(g_att, 5), format_number(cai, 4),
                       format_number(c_att, 5)});
    }
    bench::print_table(table, "roofline_points");

    // Static per-kernel compute roofs from the verified kernel IRs
    // (model/kernel_peak): pure descriptor arithmetic, identical on every
    // host that compiled the same kernel set (kernelcheck_test pins it).
    {
        std::cout << "\n=== Static kernel peaks (from verified kernel IRs, "
                     "ops/cycle/core) ===\n\n";
        Table peaks({"kernel", "family", "isa", "tile", "lanes",
                     "regs used", "chain", "utilization", "ops/cycle"});
        for (const model::KernelPeakRow& row : model::kernel_peak_table()) {
            peaks.add_row({row.kernel, row.family, isa_name(row.isa),
                           std::to_string(row.mr) + "x"
                               + std::to_string(row.nr),
                           format_number(row.lanes, 3),
                           format_number(row.regs_used, 3),
                           format_number(row.chain_updates, 3),
                           format_number(row.utilization, 3),
                           format_number(row.ops_per_cycle, 4)});
        }
        bench::print_table(peaks, "kernel_peak");

        const MachineSpec host = host_machine();
        const MicroKernel& best = best_microkernel_of<float>();
        if (const KernelIr* ir = kernel_ir_for(best.name)) {
            const double core_peak =
                model::kernel_peak_gflops(*ir, host.freq_ghz);
            std::cout << "\ndispatched kernel " << best.name
                      << ": static roof "
                      << format_number(core_peak, 4) << " GFLOP/s/core x "
                      << host.cores << " core(s) = "
                      << format_number(core_peak * host.cores, 5)
                      << " GFLOP/s at " << format_number(host.freq_ghz, 3)
                      << " GHz\n";
        }
    }

    std::cout
        << "\nShape check: CAKE's CB shaping pushes whole-problem\n"
           "arithmetic intensity past every machine's ridge point (peak /\n"
           "DRAM BW), so its attainable throughput equals the compute\n"
           "roof; GOTO's partial-result traffic caps its AI near the ridge\n"
           "on bandwidth-starved machines (the A53 row).\n";
    return 0;
}
