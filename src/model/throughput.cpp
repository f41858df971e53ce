#include "model/throughput.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace model {

BlockPlanStats cake_traffic(const GemmShape& shape,
                            const CbBlockParams& params, ScheduleKind kind,
                            bool accumulate)
{
    if (shape.m == 0 || shape.n == 0 || shape.k == 0) return {};
    return build_block_plan(block_order(kind, shape, params),
                            plan_inputs(shape, params, kind, accumulate))
        .stats;
}

double block_internal_bytes(index_t mi, index_t ni, index_t ki,
                            const KernelShape& kernel)
{
    const double calls = static_cast<double>(ceil_div(mi, kernel.mr))
        * static_cast<double>(ceil_div(ni, kernel.nr));
    const double per_call = static_cast<double>(ki) * kernel.nr
        + 2.0 * kernel.mr * kernel.nr;
    return (calls * per_call + static_cast<double>(mi) * ki) * sizeof(float);
}

namespace {

Prediction finalize(const MachineSpec& machine, int p, const GemmShape& shape,
                    std::uint64_t dram_bytes, std::uint64_t rmw_bytes,
                    double internal_bytes)
{
    Prediction pred;
    pred.dram_bytes = dram_bytes;
    pred.internal_bytes = internal_bytes;
    pred.t_compute = shape.flops() / (machine.peak_gflops(p) * 1e9);
    // Streaming traffic at peak bandwidth; partial-result RMW round trips
    // at the machine's effective RMW rate.
    pred.t_dram =
        static_cast<double>(dram_bytes - rmw_bytes)
            / (machine.dram_bw_gbs * 1e9)
        + static_cast<double>(rmw_bytes) / (machine.rmw_bw_gbs() * 1e9);
    pred.t_internal = internal_bytes / (machine.internal_bw_at(p) * 1e9);
    pred.seconds =
        std::max({pred.t_compute, pred.t_dram, pred.t_internal});
    if (pred.seconds == pred.t_compute) pred.bound = "compute";
    else if (pred.seconds == pred.t_dram) pred.bound = "dram";
    else pred.bound = "internal";
    pred.gflops = shape.flops() / pred.seconds / 1e9;
    pred.avg_dram_bw_gbs =
        static_cast<double>(dram_bytes) / pred.seconds / 1e9;
    return pred;
}

/// One predictor for both algorithms: the plan of `kind` over `params`
/// gives the DRAM bytes and, step by step, the internal bytes.
Prediction predict_plan(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel,
                        const CbBlockParams& params, ScheduleKind kind)
{
    const bool empty = shape.m == 0 || shape.n == 0 || shape.k == 0;
    const BlockPlan plan = empty
        ? BlockPlan{}
        : build_block_plan(block_order(kind, shape, params),
                           plan_inputs(shape, params, kind));
    double internal = 0;
    for (const BlockStep& st : plan.steps) {
        internal += block_internal_bytes(st.mi, st.ni, st.ki, kernel);
    }
    // Every C read is half of a read-modify-write round trip.
    return finalize(machine, p, shape, plan.stats.total_bytes(),
                    2 * plan.stats.c_read_bytes, internal);
}

}  // namespace

Prediction predict_cake(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel,
                        const TilingOptions& topts)
{
    CAKE_CHECK(p >= 1);
    const CbBlockParams params =
        compute_cb_block(machine, p, kernel.mr, kernel.nr, topts);
    Prediction pred = predict_plan(machine, p, shape, kernel, params,
                                   ScheduleKind::kKFirstSerpentine);
    pred.cake_params = params;
    return pred;
}

Prediction predict_goto(const MachineSpec& machine, int p,
                        const GemmShape& shape, KernelShape kernel)
{
    CAKE_CHECK(p >= 1);
    return predict_plan(machine, p, shape, kernel,
                        goto_plan_params(machine, p, kernel.mr, kernel.nr),
                        ScheduleKind::kGoto);
}

}  // namespace model
}  // namespace cake
