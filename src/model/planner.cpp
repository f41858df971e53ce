#include "model/planner.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "core/block_plan.hpp"

namespace cake {
namespace model {

std::vector<ScheduleTrafficRow> schedule_traffic_table(
    const GemmShape& shape, const CbBlockParams& params)
{
    std::vector<ScheduleTrafficRow> rows;
    rows.reserve(all_schedule_kinds().size());
    for (const ScheduleKind kind : all_schedule_kinds()) {
        const auto order = block_order(kind, shape, params);
        // build_block_plan is the executors' own accounting — the ranking
        // ranks exactly the traffic the runtime would incur.
        const BlockPlan plan =
            build_block_plan(order, plan_inputs(shape, params, kind));
        ScheduleTrafficRow row;
        row.schedule = kind;
        row.dram_bytes = plan.stats.total_bytes();
        row.shared_steps = count_shared_steps(order);
        row.c_spills = plan.stats.c_partial_spills;
        rows.push_back(row);
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const ScheduleTrafficRow& a,
                        const ScheduleTrafficRow& b) {
                         return a.dram_bytes < b.dram_bytes;
                     });
    return rows;
}

ScheduleKind recommend_schedule(const GemmShape& shape,
                                const CbBlockParams& params)
{
    return schedule_traffic_table(shape, params).front().schedule;
}

CakePlan make_plan(const MachineSpec& machine, int p, const GemmShape& shape,
                   KernelShape kernel, const TilingOptions& topts)
{
    CAKE_CHECK(p >= 1);
    CakePlan plan;
    plan.cores = p;
    plan.prediction = predict_cake(machine, p, shape, kernel, topts);
    plan.params = plan.prediction.cake_params;
    plan.schedule = recommend_schedule(shape, plan.params);
    const Prediction base = predict_cake(machine, 1, shape, kernel, topts);
    plan.speedup_vs_1core =
        base.seconds > 0 ? base.seconds / plan.prediction.seconds : 1.0;

    std::ostringstream os;
    os << "CB block " << plan.params.m_blk << "x" << plan.params.k_blk << "x"
       << plan.params.n_blk << " (mc=" << plan.params.mc
       << ", alpha=" << plan.params.alpha << ", "
       << schedule_kind_name(plan.schedule) << ") on " << p << " core(s): "
       << plan.prediction.gflops << " GFLOP/s predicted, "
       << plan.prediction.bound << "-bound, "
       << plan.prediction.avg_dram_bw_gbs << " GB/s DRAM";
    plan.summary = os.str();
    return plan;
}

CakePlan recommend_plan(const MachineSpec& machine, const GemmShape& shape,
                        KernelShape kernel, double tolerance)
{
    CAKE_CHECK(machine.cores >= 1);
    CakePlan best = make_plan(machine, 1, shape, kernel);
    for (int p = 2; p <= machine.cores; ++p) {
        CakePlan candidate = make_plan(machine, p, shape, kernel);
        // Strictly-better beyond the tolerance band wins; otherwise keep
        // the cheaper (fewer-core) plan.
        if (candidate.prediction.gflops
            > best.prediction.gflops * (1.0 + tolerance)) {
            best = std::move(candidate);
        }
    }
    return best;
}

CakePlan recommend_tuned_plan(const MachineSpec& machine,
                              const GemmShape& shape,
                              const TunedPlanSource* source,
                              index_t elem_bytes, KernelShape kernel,
                              double tolerance)
{
    if (source != nullptr) {
        PlanRequest req;
        req.m = shape.m;
        req.n = shape.n;
        req.k = shape.k;
        req.elem_bytes = elem_bytes;
        req.p = machine.cores;
        if (const auto tuned = source->lookup(req)) {
            // The cache's winner was measured faster than the analytic
            // plan on this hardware; adopt its geometry verbatim and let
            // the model annotate (not veto) it.
            TilingOptions topts;
            topts.mc = tuned->mc;
            topts.kc = tuned->kc;
            topts.nc = tuned->nc;
            if (!tuned->nc) topts.alpha = tuned->alpha;
            topts.elem_bytes = elem_bytes;
            const int p = tuned->p
                ? std::clamp(*tuned->p, 1, machine.cores)
                : machine.cores;
            CakePlan plan = make_plan(machine, p, shape, kernel, topts);
            plan.tuned = true;
            plan.summary += " [tuned]";
            return plan;
        }
    }
    return recommend_plan(machine, shape, kernel, tolerance);
}

DisagreementReport compare_rankings(
    const std::vector<MeasuredPlanPoint>& points, double tolerance)
{
    DisagreementReport report;
    for (std::size_t i = 0; i < points.size(); ++i) {
        for (std::size_t j = i + 1; j < points.size(); ++j) {
            const MeasuredPlanPoint& a = points[i];
            const MeasuredPlanPoint& b = points[j];
            const bool model_prefers_a =
                a.predicted_gflops > b.predicted_gflops * (1.0 + tolerance);
            const bool model_prefers_b =
                b.predicted_gflops > a.predicted_gflops * (1.0 + tolerance);
            const bool hw_prefers_a =
                a.measured_gflops > b.measured_gflops * (1.0 + tolerance);
            const bool hw_prefers_b =
                b.measured_gflops > a.measured_gflops * (1.0 + tolerance);
            if (model_prefers_a && hw_prefers_b) {
                report.flips.push_back({a, b});
            } else if (model_prefers_b && hw_prefers_a) {
                report.flips.push_back({b, a});
            }
        }
    }
    return report;
}

}  // namespace model
}  // namespace cake
