#include "model/kernel_peak.hpp"

#include <algorithm>

namespace cake {
namespace model {

KirPipeModel kir_pipe_model(const KernelIr& ir)
{
    // Latencies and port assignments follow the published per-instruction
    // tables for Intel Skylake-SP through Sapphire Rapids (uops.info and
    // Agner Fog's "Instruction tables"): a 512-bit vector op issues on
    // port 0 (ports 0+1 fused) or port 5; a 256-bit one on ports 0, 1 or
    // 5, with the integer multiplies (vpmaddubsw, vpmaddwd) and the FMAs
    // on ports 0 and 1 only.
    const bool scalar = ir.isa == Isa::kScalar;
    if (ir.family == "i8") {
        if (scalar) return {1, 1};
        if (ir.fma_uops == 1) {
            // vpdpbusd zmm: 5-cycle latency on the accumulator, ports 0
            // and 5 (a 12-chain vpdpbusd loop retires ~1.7 per cycle on a
            // Sapphire Rapids-class Xeon).
            return {5, 2};
        }
        // vpmaddubsw + vpmaddwd + vpaddd: the chain op is the latency-1
        // vpaddd; the two multiplies fill ports 0 and 1 while the add
        // takes port 5, so all three 256-bit ports issue.
        return {1, 3};
    }
    // Skylake-class FMA: 4-cycle latency, dual-ported for the SIMD
    // kernels; the scalar kernels' stack tile keeps them off the fast
    // path, modelled single-ported.
    return scalar ? KirPipeModel{4, 1} : KirPipeModel{4, 2};
}

KernelPeakRow kernel_peak_row(const KernelIr& ir)
{
    KernelPeakRow row;
    row.kernel = ir.kernel;
    row.family = ir.family;
    row.isa = ir.isa;
    row.mr = ir.mr;
    row.nr = ir.nr;
    row.lanes = ir.lanes;
    row.regs_used = ir.regs_used();
    row.reg_budget = ir.reg_budget;
    row.chain_updates = ir.chain_updates;
    const KirPipeModel pipe = kir_pipe_model(ir);
    row.independent_chains = ir.chain_updates > 0
        ? static_cast<double>(ir.acc_regs) / ir.chain_updates
        : 0.0;
    // FMA slots the ports retire per cycle.
    const double issue = ir.fma_uops > 0
        ? static_cast<double>(pipe.ports) / ir.fma_uops
        : 0.0;
    const double needed = pipe.latency * issue;
    row.utilization =
        needed > 0 ? std::min(1.0, row.independent_chains / needed) : 0.0;
    row.ops_per_cycle = 2.0 * ir.lanes * ir.quad * issue * row.utilization;
    return row;
}

std::vector<KernelPeakRow> kernel_peak_table()
{
    std::vector<KernelPeakRow> rows;
    for (const KernelIr& ir : all_kernel_irs()) {
        rows.push_back(kernel_peak_row(ir));
    }
    return rows;
}

double kernel_peak_gflops(const KernelIr& ir, double freq_ghz)
{
    return kernel_peak_row(ir).ops_per_cycle * freq_ghz;
}

}  // namespace model
}  // namespace cake
