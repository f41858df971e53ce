// Guided empirical search over the CAKE plan space.
//
// The paper's thesis is "no design search needed": §4.3 derives the block
// geometry analytically. This module is the honest countercheck — it
// benchmarks the analytic plan against a guided neighbourhood of
// alternatives (mc / kc / nc geometry, schedule, executor, worker count,
// micro-kernel ISA) on the real host and records where measurement and
// model disagree. The analytic plan is ALWAYS candidate 0 and always
// timed, so the recorded winner can never measure worse than it, and a
// non-default plan is recorded only if it beats the default again in an
// interleaved re-timing; on most shapes the search simply confirms the
// paper.
//
// Discipline:
//   * every candidate must pass audit_cb_plan() before it is ever timed —
//     the tuner cannot select a plan that violates the §4.2/§4.3
//     invariants;
//   * every candidate must also pass the numerics gate: a plan whose
//     static forward error bound (core/fperror.hpp) exceeds the analytic
//     default's is refused untimed — speed can never buy accuracy away —
//     and the recorded winner carries its bound into the cache;
//   * timing uses the shared min-of-N policy of src/common/timing.hpp,
//     the same experiment the ablation benches run;
//   * measurement is injectable (MeasureFn), so tests drive the whole
//     search loop with a deterministic mock timer;
//   * winners persist in the versioned cache of src/tune/cache.hpp keyed
//     by machine fingerprint, dtype and shape bucket.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/timing.hpp"
#include "common/types.hpp"
#include "core/plan_source.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "machine/machine.hpp"
#include "model/planner.hpp"
#include "threading/thread_pool.hpp"
#include "tune/cache.hpp"

namespace cake {
namespace tune {

/// One point in the plan space.
struct TuneCandidate {
    int p = 1;
    std::optional<index_t> mc;  ///< unset = solver default
    std::optional<index_t> kc;
    std::optional<index_t> nc;
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    CakeExec exec = CakeExec::kAuto;
    std::optional<Isa> isa;
    std::string label;            ///< human-readable description
    bool analytic_default = false;  ///< candidate 0: the §4.3 plan

    /// The candidate as cacheable plan overrides (default-valued knobs
    /// stay unset so an analytic-default winner caches as a no-op plan).
    [[nodiscard]] PlanOverrides overrides() const;
};

/// Kernel admission hook: returns whether the named micro-kernel may be
/// timed, filling `why` on refusal. Empty = the release-side static gate
/// (kernel_gate_ok: IR exists, registry binds, spill-free); cake_tune
/// injects the full kernelcheck prover (symbolic verification + binary
/// lane fingerprint) when built with the analysis library.
using KernelGateFn =
    std::function<bool(const std::string& kernel, std::string* why)>;

/// What to tune.
struct TuneRequest {
    GemmShape shape;
    /// Searchable today: "f32" | "f64". The cache key also understands
    /// "f16"/"bf16"/"i8" (ROADMAP item 2) — searching them throws until
    /// their micro-kernels exist.
    std::string dtype = "f32";
    /// Maximum candidates to TIME (audit-rejected ones are free). >= 1;
    /// the analytic default always claims the first slot. --smoke uses a
    /// tiny budget; --search the default.
    int budget = 24;
    TimingPolicy policy;          ///< shared warmup/min-of-N discipline
    double model_tolerance = 0.02;  ///< ranking-tie band (fractional)
    KernelGateFn kernel_gate;     ///< empty = kernel_gate_ok
};

/// One timed candidate with both sides of the story.
struct CandidateResult {
    TuneCandidate candidate;
    double seconds = 0;           ///< min-of-N wall time
    double measured_gflops = 0;
    double predicted_gflops = 0;  ///< analytic model at this geometry
    double rel_error_bound = 0;   ///< static forward error bound of the plan
};

/// Everything a search produced.
struct TuneOutcome {
    TunedEntry winner;
    std::vector<CandidateResult> results;  ///< every timed candidate
    model::DisagreementReport disagreement;  ///< model-vs-hardware flips
    int audit_rejected = 0;  ///< candidates audit_cb_plan vetoed untimed
    int kernelcheck_rejected = 0;  ///< candidates whose micro-kernel fails
                                   ///< the kernel gate, vetoed untimed
    int numerics_rejected = 0;  ///< candidates whose error bound exceeds
                                ///< the analytic default's, vetoed untimed
    int budget_dropped = 0;  ///< candidates dropped by the budget cap
    /// Interleaved re-timing of the fastest non-default candidate against
    /// the analytic default, in order default, candidate, default,
    /// candidate (seconds); empty when the default was fastest outright.
    std::vector<double> confirm_seconds;
    bool cache_hit = false;  ///< served from the cache; nothing was timed
    std::vector<Issue> cache_issues;  ///< from loading (tune_with_cache)

    /// The analytic default's measured throughput (results[0]).
    [[nodiscard]] double analytic_gflops() const
    {
        return results.empty() ? winner.analytic_gflops
                               : results.front().measured_gflops;
    }
};

/// Measurement hook: min-of-N seconds for one candidate on the real
/// shape. The default (empty) hook benchmarks with CakeGemmT on the
/// caller's pool; tests inject a deterministic mock.
using MeasureFn = std::function<double(const TuneCandidate&)>;

/// The candidate neighbourhood the search times, in order: the analytic
/// default, then geometry variations around it (mc / kc / nc), then
/// execution variations (the overlap mode kAuto does not pick at p,
/// reduced worker counts, alternative schedules, other supported ISAs)
/// applied to the analytic geometry. Exposed so tests can pin the search
/// space.
std::vector<TuneCandidate> generate_candidates(const MachineSpec& machine,
                                               const GemmShape& shape,
                                               index_t elem_bytes, int p);

/// Register tile (mr, nr) of the micro-kernel a dtype/ISA choice dispatches
/// to: `isa`'s kernel, or the host's best when unset. The one registry
/// lookup the candidate generator, the audit gate and winner_params share.
/// Throws cake::Error for a dtype without kernels ("f32" | "f64" today).
std::pair<index_t, index_t> kernel_shape_for(const std::string& dtype,
                                             const std::optional<Isa>& isa);

/// The CB geometry a tuned winner runs with: its plan overrides solved at
/// the register tile of the kernel its dtype and ISA dispatch to.
CbBlockParams winner_params(const MachineSpec& machine,
                            const TunedEntry& winner);

/// Run the guided search for one shape. Candidates failing audit_cb_plan
/// are skipped untimed; remaining ones are measured under req.policy. The
/// fastest becomes the winner only if it also beats the analytic default
/// in both pairs of an interleaved re-timing; otherwise the timing noise
/// picked it and the default wins. `fingerprint` keys the
/// returned entry. Throws cake::Error only on caller errors (unknown
/// dtype, empty budget after audit gating).
TuneOutcome tune_shape(ThreadPool& pool, const MachineSpec& machine,
                       const TuneRequest& req, const std::string& fingerprint,
                       MeasureFn measure = {});

/// Cache-first entry point: a stored winner for (fingerprint, dtype,
/// bucket) short-circuits the whole search (cache_hit = true, nothing
/// timed); otherwise tune_shape runs and the winner is upserted and saved
/// to `cache_path`. Load problems surface in cache_issues and degrade to
/// a miss, never a failure.
TuneOutcome tune_with_cache(ThreadPool& pool, const MachineSpec& machine,
                            const TuneRequest& req,
                            const std::string& cache_path,
                            const std::string& fingerprint,
                            MeasureFn measure = {});

}  // namespace tune
}  // namespace cake
