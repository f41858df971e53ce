// Planner: the "no design search" user-facing API. Given a machine and a
// problem, return the analytically derived execution plan — CB geometry,
// predicted time/throughput, the binding resource, and the recommended
// core count (more cores stop paying once internal bandwidth or block
// quantisation bites).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan_source.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"
#include "model/throughput.hpp"

namespace cake {
namespace model {

/// A complete execution plan for one GEMM.
struct CakePlan {
    CbBlockParams params;      ///< solved CB-block geometry
    int cores = 1;             ///< cores the plan uses
    /// Block traversal recommend_schedule() picks for this geometry
    /// (callers copy it into CakeOptions::schedule).
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    Prediction prediction;     ///< predicted time / GFLOP/s / bound
    double speedup_vs_1core = 1.0;
    bool tuned = false;        ///< geometry came from a TunedPlanSource
    std::string summary;       ///< one-line human-readable description
};

/// Plan `shape` on `machine` with a fixed core count. `topts` forces
/// solver knobs (mc/kc/nc/alpha), e.g. to model a tuned configuration.
CakePlan make_plan(const MachineSpec& machine, int p, const GemmShape& shape,
                   KernelShape kernel = {}, const TilingOptions& topts = {});

/// Choose the core count in [1, machine.cores] with the highest predicted
/// throughput; prefers fewer cores on ties within `tolerance` (fraction),
/// since extra cores that add nothing still cost power.
CakePlan recommend_plan(const MachineSpec& machine, const GemmShape& shape,
                        KernelShape kernel = {}, double tolerance = 0.02);

/// Same, but consult `source` (the tuning cache) first: when it has an
/// empirically measured winner for this shape, adopt its geometry and
/// worker count verbatim (it beat the analytic plan on real hardware —
/// the model is not re-ranked above the measurement) and only fall back
/// to the analytic search on a miss. `elem_bytes` keys the lookup
/// (4 = f32, 8 = f64). nullptr source degrades to recommend_plan.
/// (Deliberately NOT an overload of recommend_plan: a braced `{}` kernel
/// argument would make calls like recommend_plan(m, s, {}, 0.05)
/// ambiguous between KernelShape and the source pointer.)
CakePlan recommend_tuned_plan(const MachineSpec& machine,
                              const GemmShape& shape,
                              const TunedPlanSource* source,
                              index_t elem_bytes, KernelShape kernel = {},
                              double tolerance = 0.02);

/// Closed-form DRAM traffic of one schedule kind at a solved geometry:
/// the Eq. 2 fetch/spill walk of build_block_plan, byte-weighted with
/// edge-block clipping and beta = 0 — the same totals the verifiers'
/// independent closed form (schedir::io_model, read by IR_IO_MODEL and
/// LOC_TRAFFIC) pins byte-exactly (src/analysis/verify.hpp).
struct ScheduleTrafficRow {
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    std::uint64_t dram_bytes = 0;  ///< external reads + writes
    index_t shared_steps = 0;      ///< transitions carrying >= 1 surface
    index_t c_spills = 0;          ///< partial-C writeback+reload round trips
};

/// One row per all_schedule_kinds() entry, sorted fewest-bytes first;
/// ties keep registry order, so the paper's serpentine wins them.
std::vector<ScheduleTrafficRow> schedule_traffic_table(
    const GemmShape& shape, const CbBlockParams& params);

/// The decision rule the locality analyzer's traffic table induces
/// (DESIGN.md §13): the schedule kind with the least predicted DRAM
/// traffic for this plan, ties broken toward the paper's serpentine.
/// Consumed by make_plan/recommend_plan (CakePlan::schedule) and the
/// tuner's stage-2 candidate ordering.
ScheduleKind recommend_schedule(const GemmShape& shape,
                                const CbBlockParams& params);

/// One plan configuration with the model's prediction recorded next to a
/// real measurement of the same configuration (the tuner produces these).
struct MeasuredPlanPoint {
    std::string label;             ///< candidate description, e.g. "mc=96 kc=64"
    double predicted_gflops = 0;   ///< Eq. 2 / §4.3 model's ranking input
    double measured_gflops = 0;    ///< min-of-N wall-clock measurement
};

/// A pair of configurations the analytic model ranks one way and the
/// hardware ranks the other — exactly the shapes where empirical tuning
/// pays and where the model needs calibration attention.
struct RankingFlip {
    MeasuredPlanPoint preferred_by_model;    ///< higher predicted_gflops
    MeasuredPlanPoint preferred_by_machine;  ///< higher measured_gflops
};

/// Where the model's ranking of a candidate set disagrees with reality.
struct DisagreementReport {
    std::vector<RankingFlip> flips;

    [[nodiscard]] bool agree() const { return flips.empty(); }
};

/// Compare the model's ranking of `points` against the measured ranking.
/// A pair flips when the model prefers A over B beyond `tolerance`
/// (fractional) while the measurement prefers B over A beyond it — small
/// differences inside the band are treated as ties, not disagreements.
DisagreementReport compare_rankings(
    const std::vector<MeasuredPlanPoint>& points, double tolerance = 0.02);

}  // namespace model
}  // namespace cake
