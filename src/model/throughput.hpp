// Whole-problem performance prediction for CAKE and GOTO on a described
// machine: the engine behind the reproduction of Figs. 8-12 (multi-core
// curves that a single-core host cannot measure directly).
//
// The prediction takes the three resource limits the paper analyses —
// compute throughput, external (DRAM) bandwidth, and internal (LLC<->core)
// bandwidth — computes the time each would impose, and takes the maximum
// (block IO overlaps compute by CB-block construction, §2.1). Every byte
// count reads build_block_plan, the plan the executor runs.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "core/block_plan.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"

namespace cake {
namespace model {

/// External-memory traffic of a full run of `kind` (GOTO's too, with its
/// goto_plan_params geometry): the stats of the plan the executor would
/// run, all zero for an empty shape.
BlockPlanStats cake_traffic(const GemmShape& shape,
                            const CbBlockParams& params,
                            ScheduleKind kind = ScheduleKind::kKFirstSerpentine,
                            bool accumulate = false);

/// Register-tile shape assumed by the model (the paper's BLIS kernels are
/// AVX2-class 6x16).
struct KernelShape {
    index_t mr = 6;
    index_t nr = 16;
};

/// Internal (LLC <-> core) traffic in bytes for a macro-kernel sweep over
/// an mi x ni x ki block: every micro-kernel call streams a B sliver from
/// the LLC and reads+writes its C tile there; the A surface crosses once
/// into the private cache.
double block_internal_bytes(index_t mi, index_t ni, index_t ki,
                            const KernelShape& kernel);

/// Performance prediction for one configuration.
struct Prediction {
    double seconds = 0;
    double gflops = 0;
    double avg_dram_bw_gbs = 0;       ///< traffic spread over predicted time
    std::uint64_t dram_bytes = 0;
    double internal_bytes = 0;
    double t_compute = 0;             ///< compute-limited time
    double t_dram = 0;                ///< DRAM-bandwidth-limited time
    double t_internal = 0;            ///< internal-bandwidth-limited time
    std::string bound;                ///< "compute" | "dram" | "internal"
    CbBlockParams cake_params;        ///< populated for CAKE predictions
};

/// Predict a CAKE run of `shape` on `machine` with `p` cores.
Prediction predict_cake(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel = {},
                        const TilingOptions& topts = {});

/// Predict a GOTO run (the MKL/ARMPL/OpenBLAS stand-in): the kGoto plan
/// over goto_plan_params.
Prediction predict_goto(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel = {});

}  // namespace model
}  // namespace cake
