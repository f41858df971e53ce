// Static per-kernel throughput bounds derived from the kernel IR
// (kernel/kernel_ir.hpp): the compute roof each micro-kernel's dataflow
// permits, published on the roofline (bench_roofline), read by the ledger's
// kernel roof, and pinned for every compiled kernel by kernelcheck_test.
//
// The bound is the classical latency/parallelism argument. One FMA slot
// (KirFma) issues `fma_uops` vector µops on P ports, so the machine
// retires P / fma_uops slots per cycle. One k-step updates each
// accumulator `chain_updates` times, so the loop carries
// acc_regs / chain_updates independent dependency chains; with a
// chain-op latency of L cycles the machine needs L * P / fma_uops chains
// in flight to saturate the ports. Utilisation is therefore
//
//     min(1, (acc_regs / chain_updates) / (L * P / fma_uops))
//
// and the per-core roof, in operations per cycle (= GFLOP/s per GHz), is
//
//     2 * lanes * quad * (P / fma_uops) * utilisation
//
// (2 for multiply+add; quad > 1 for the int8 dot-quad kernels, whose
// "flops" are int ops). The pipe constants (kir_pipe_model) are a
// deliberate coarse model, an upper bound, not a prediction: real kernels
// also pay loads, broadcasts and loop overhead. The verifier
// (KIR_THROUGHPUT) pins chain_updates to the IR's actual dataflow and
// fma_uops to the idiom its registers imply, so the bound cannot be
// inflated by under-declaring either.
//
// Release code, like the rest of src/model: the numbers feed benches and
// the tuner report; the proof that they are honest lives in
// analysis/kernelcheck.
#pragma once

#include <string>
#include <vector>

#include "kernel/kernel_ir.hpp"

namespace cake {
namespace model {

/// Pipe model for one kernel IR: the latency of the accumulator-carried
/// op and the vector ports that issue the kernel's µops (the IR declares
/// how many µops one FMA slot costs, KernelIr::fma_uops). Scalar kernels
/// are modelled single-ported — their stack tile round-trips through L1,
/// so the multi-port fast path is not theirs.
struct KirPipeModel {
    int latency = 1;
    int ports = 1;
};

KirPipeModel kir_pipe_model(const KernelIr& ir);

/// One roofline row: the static compute roof of one registered kernel.
struct KernelPeakRow {
    std::string kernel;
    std::string family;
    Isa isa = Isa::kScalar;
    index_t mr = 0;
    index_t nr = 0;
    int lanes = 1;
    int regs_used = 0;
    int reg_budget = 0;
    int chain_updates = 1;
    double independent_chains = 0;  ///< acc_regs / chain_updates
    double utilization = 0;  ///< min(1, chains / (latency * issue rate))
    double ops_per_cycle = 0;       ///< per-core ops/cycle = GFLOP/s per GHz
};

/// Derive the static bound row for one IR.
KernelPeakRow kernel_peak_row(const KernelIr& ir);

/// Rows for every compiled kernel (all_kernel_irs() order): pure
/// descriptor arithmetic, identical on every host that compiled the same
/// kernel set.
std::vector<KernelPeakRow> kernel_peak_table();

/// Per-core static peak at `freq_ghz`, in GFLOP/s (int-GOP/s for i8).
double kernel_peak_gflops(const KernelIr& ir, double freq_ghz);

}  // namespace model
}  // namespace cake
