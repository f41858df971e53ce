// The CAKE architecture simulator (§6.2): models the timing of CB-block
// execution on a configurable machine — external-memory channel, local
// memory, and a grid of cores — using the discrete-event engine and
// source-routed packets. Reproduces the multi-core scaling experiments
// (Figs. 9-12) that a single-core host cannot run natively, and validates
// the block schedule's numerical correctness on real data.
//
// Both algorithms run the executor's block plan and its phases: CAKE's
// solved CB blocks under the configured schedule, overlap on, or GOTO's
// plan (goto_plan_params under ScheduleKind::kGoto), overlap off. The
// algorithm selects the plan and nothing else.
//
// Timing model: the core grid steps through BlockPlan::phases. A phase
// starts its pack step's surface fetches and its compute step together and
// ends, at the team's barrier, when both are done. CAKE packs step t + 1
// beside compute(t) (§2.1: "the IO time for the three surfaces will match
// the computation time of the block, allowing IO to overlap computation"),
// so a phase takes max(fetch, compute); GOTO packs in phases of its own,
// so each fetch sits on the critical path (fetch + compute). CAKE overlaps
// here at p = 1 too, where the host's CakeExec::kAuto runs overlap off:
// the simulated channel moves data without a core, while a host pack
// needs one.
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"
#include "model/throughput.hpp"
#include "sim/packet.hpp"
#include "sim/timeline.hpp"

namespace cake {
namespace sim {

/// Which algorithm's plan to simulate.
enum class Algorithm {
    kCake,
    kGoto,
};

/// Simulation inputs.
struct SimConfig {
    MachineSpec machine;
    int p = 1;
    GemmShape shape;
    model::KernelShape kernel;  ///< register tile (default 6x16)
    TilingOptions topts;  ///< CAKE only
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;  ///< CAKE only
    /// 2.5D-style decomposition (CAKE only): split the K grid into this
    /// many contiguous layers and run the (M, N) traversal once per layer
    /// (build_layered_schedule). 1 = the plain 2D schedule. The multi-core
    /// sweep uses this to trade partial-C spill traffic against a smaller
    /// per-pass K working set.
    index_t k_layers = 1;
    Algorithm algorithm = Algorithm::kCake;
    /// Optional: record every fetch/compute/drain interval for Chrome-trace
    /// export (sim/timeline.hpp). Not owned.
    Timeline* timeline = nullptr;
    /// Functional mode: blocks carry real data — each compute-completion
    /// event performs the block's actual partial product, as the paper's
    /// SystemC simulator did, and SimResult::max_abs_error reports the
    /// final deviation from a float64 oracle. Use small shapes; the naive
    /// per-block math is O(M*N*K).
    bool validate_data = false;
    std::uint64_t validate_seed = 42;
};

/// Simulation outputs.
struct SimResult {
    double seconds = 0;
    double gflops = 0;
    double avg_dram_bw_gbs = 0;       ///< DRAM bytes / simulated seconds
    std::uint64_t dram_bytes = 0;
    double dram_busy_frac = 0;        ///< DRAM channel occupancy
    double core_busy_frac = 0;        ///< core-grid occupancy
    index_t steps = 0;                ///< pipeline macro-steps executed
    CbBlockParams params;             ///< the simulated plan's geometry
    PacketCounters packets;           ///< per-kind packet accounting
    /// Functional mode only: max |C - oracle| after the simulated run.
    double max_abs_error = 0;
};

/// Run the timing simulation.
SimResult simulate(const SimConfig& config);

/// Multi-tenant co-scheduling (§6.1: CAKE "can also help reduce searches
/// for optimal multi-tenant schedules"): several GEMMs run concurrently,
/// each on its own core grid, all sharing one DRAM channel. Tenants whose
/// schedules demand constant external bandwidth (CAKE) interfere far less
/// than tenants whose demand grows with cores (GOTO).
struct MultiTenantResult {
    std::vector<SimResult> tenants;  ///< per-tenant metrics over its own span
    double makespan = 0;             ///< time until the last tenant finishes
    double aggregate_gflops = 0;     ///< total work / makespan
    double dram_busy_frac = 0;       ///< shared-channel occupancy
};

/// All configs must target the same machine (its DRAM feeds the shared
/// channel); each config brings its own `p` core grid.
MultiTenantResult simulate_shared_dram(const std::vector<SimConfig>& configs,
                                       Timeline* timeline = nullptr);

/// Functional validation (the paper's stated purpose for its simulator):
/// execute the CB-block schedule on real random data — each block computed
/// as an independent partial product, accumulated in schedule order — and
/// return the max absolute error against a float64 oracle. Any block
/// missed, duplicated or mis-indexed by the scheduler produces a large
/// error here.
double validate_schedule_numerics(const GemmShape& shape,
                                  const CbBlockParams& params,
                                  ScheduleKind kind, std::uint64_t seed = 42);

}  // namespace sim
}  // namespace cake
