#include "tune/tune.hpp"

#include <algorithm>
#include <sstream>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "core/audit.hpp"
#include "core/cake_gemm.hpp"
#include "core/fperror.hpp"
#include "kernel/kernel_ir.hpp"
#include "kernel/registry.hpp"
#include "model/throughput.hpp"

namespace cake {
namespace tune {
namespace {

/// Kernel register-tile shape for a dtype/ISA choice.
template <typename T>
std::pair<index_t, index_t> kernel_shape_of(const std::optional<Isa>& isa)
{
    const MicroKernelT<T>& k =
        isa ? microkernel_for_of<T>(*isa) : best_microkernel_of<T>();
    return {k.mr, k.nr};
}

/// Registry name of the micro-kernel a dtype/ISA choice dispatches to —
/// the key the kernel gate checks.
template <typename T>
std::string kernel_name_of(const std::optional<Isa>& isa)
{
    const MicroKernelT<T>& k =
        isa ? microkernel_for_of<T>(*isa) : best_microkernel_of<T>();
    return k.name;
}

std::string kernel_name_for(const std::string& dtype,
                            const std::optional<Isa>& isa)
{
    if (dtype == "f32") return kernel_name_of<float>(isa);
    if (dtype == "f64") return kernel_name_of<double>(isa);
    throw Error("unknown dtype '" + dtype + "' (expected f32 or f64)");
}

index_t elem_bytes_for(const std::string& dtype)
{
    // Width is defined for every dtype the cache can key on; the search
    // itself still needs kernels (kernel_shape_for throws until the
    // f16/bf16/i8 micro-kernels of ROADMAP item 2 land).
    const DtypeDesc* d = find_dtype(dtype);
    if (d == nullptr) {
        throw Error("unknown dtype '" + dtype
                    + "' (expected f32/f64/f16/bf16/i8)");
    }
    return d->elem_bytes;
}

TilingOptions tiling_of(const TuneCandidate& c, index_t elem_bytes)
{
    TilingOptions topts;
    topts.mc = c.mc;
    topts.kc = c.kc;
    topts.nc = c.nc;
    topts.elem_bytes = elem_bytes;
    return topts;
}

std::string describe(const TuneCandidate& c)
{
    std::ostringstream os;
    os << "p=" << c.p;
    if (c.mc) os << " mc=" << *c.mc;
    if (c.kc) os << " kc=" << *c.kc;
    if (c.nc) os << " nc=" << *c.nc;
    if (c.schedule != ScheduleKind::kKFirstSerpentine) {
        os << " sched=" << schedule_kind_name(c.schedule);
    }
    if (c.exec == CakeExec::kSerial) os << " exec=serial";
    if (c.exec == CakeExec::kPipelined) os << " exec=pipelined";
    if (c.isa) os << " isa=" << isa_name(*c.isa);
    return os.str();
}

/// Deterministic operand fill — values in [0.5, 1.5) so accumulation
/// neither overflows nor denormalises at any searched K.
template <typename T>
void fill_operand(T* data, std::size_t count, std::uint32_t seed)
{
    std::uint32_t state = seed * 2654435761u + 1u;
    for (std::size_t i = 0; i < count; ++i) {
        state = state * 1664525u + 1013904223u;
        data[i] = T(0.5) + T(state >> 8) / T(1u << 24);
    }
}

/// Real benchmark of one candidate: CakeGemmT on freshly filled operands,
/// driver-reported seconds under the shared min-of-N policy.
template <typename T>
double measure_candidate(ThreadPool& pool, const MachineSpec& machine,
                         const GemmShape& shape, const TuneCandidate& cand,
                         const TimingPolicy& policy)
{
    CakeOptions opts;
    opts.p = cand.p;
    opts.mc = cand.mc;
    opts.kc = cand.kc;
    opts.nc = cand.nc;
    opts.schedule = cand.schedule;
    opts.exec = cand.exec;
    opts.isa = cand.isa;
    opts.machine = machine;
    CakeGemmT<T> gemm(pool, opts);

    const auto m = static_cast<std::size_t>(shape.m);
    const auto n = static_cast<std::size_t>(shape.n);
    const auto k = static_cast<std::size_t>(shape.k);
    AlignedBuffer<T> a(m * k);
    AlignedBuffer<T> b(k * n);
    AlignedBuffer<T> c(m * n);
    fill_operand(a.data(), m * k, 17u);
    fill_operand(b.data(), k * n, 41u);

    return min_seconds_reported(policy, [&] {
        gemm.multiply(a.data(), shape.k, b.data(), shape.n, c.data(),
                      shape.n, shape.m, shape.n, shape.k);
        return gemm.stats().total_seconds;
    });
}

/// mc candidates: the analytic value scaled, re-snapped to mr multiples,
/// deduplicated.
std::vector<index_t> scaled_multiples(index_t base, index_t unit,
                                      std::initializer_list<double> factors)
{
    std::vector<index_t> out;
    for (const double f : factors) {
        index_t v = static_cast<index_t>(static_cast<double>(base) * f);
        v = std::max(v / unit * unit, unit);
        if (v != base && std::find(out.begin(), out.end(), v) == out.end()) {
            out.push_back(v);
        }
    }
    return out;
}

}  // namespace

std::pair<index_t, index_t> kernel_shape_for(const std::string& dtype,
                                             const std::optional<Isa>& isa)
{
    if (dtype == "f32") return kernel_shape_of<float>(isa);
    if (dtype == "f64") return kernel_shape_of<double>(isa);
    throw Error("unknown dtype '" + dtype + "' (expected f32 or f64)");
}

CbBlockParams winner_params(const MachineSpec& machine,
                            const TunedEntry& winner)
{
    TilingOptions topts;
    topts.mc = winner.plan.mc;
    topts.kc = winner.plan.kc;
    topts.nc = winner.plan.nc;
    if (!winner.plan.nc) topts.alpha = winner.plan.alpha;
    topts.elem_bytes = elem_bytes_for(winner.dtype);
    const int p = winner.plan.p ? *winner.plan.p : machine.cores;
    const auto [mr, nr] = kernel_shape_for(winner.dtype, winner.plan.isa);
    return compute_cb_block(machine, p, mr, nr, topts);
}

PlanOverrides TuneCandidate::overrides() const
{
    PlanOverrides o;
    o.p = p;
    o.mc = mc;
    o.kc = kc;
    o.nc = nc;
    if (schedule != ScheduleKind::kKFirstSerpentine) o.schedule = schedule;
    if (exec != CakeExec::kAuto) o.exec = exec;
    o.isa = isa;
    return o;
}

std::vector<TuneCandidate> generate_candidates(const MachineSpec& machine,
                                               const GemmShape& shape,
                                               index_t elem_bytes, int p)
{
    std::vector<TuneCandidate> out;

    TuneCandidate base;
    base.p = p;
    base.analytic_default = true;
    base.label = "analytic-default";
    out.push_back(base);

    // The analytic geometry the neighbourhood is centred on, solved with
    // the same register-tile shape the measurement (and the audit gate)
    // will use — mc candidates snap to ITS mr, so every geometry variant
    // is audit-admissible by construction. If even the centre is
    // unsolvable the audit gate downstream reports it; search nothing.
    CbBlockParams solved;
    try {
        TilingOptions topts;
        topts.elem_bytes = elem_bytes;
        const auto [mr, nr] = kernel_shape_for(
            elem_bytes == 8 ? "f64" : "f32", std::nullopt);
        solved = compute_cb_block(machine, p, mr, nr, topts);
    } catch (const Error&) {
        return out;
    }

    // --- Stage 1: geometry around the analytic solution. ----------------
    // mc x kc sweep: shrink and grow the square sub-block, plus
    // deliberately rectangular kc (the axis Eq. 2 cannot see: a shallower
    // kc trades L2 reuse for a shorter DRAM-exposed pack per block).
    for (const index_t mc :
         scaled_multiples(solved.mc, solved.mr, {0.5, 0.75, 1.0, 1.5})) {
        TuneCandidate c = base;
        c.analytic_default = false;
        c.mc = mc;
        c.label = "geometry";
        out.push_back(c);
    }
    for (const index_t kc :
         scaled_multiples(solved.kc, 8, {0.5, 0.75, 1.5, 2.0})) {
        TuneCandidate c = base;
        c.analytic_default = false;
        c.kc = kc;
        c.label = "geometry";
        out.push_back(c);
    }
    // N extent: stretch the block beyond the solver's alpha (more B reuse
    // per A fetch if the LLC share tolerates it — audit decides).
    for (const double f : {1.5, 2.0}) {
        TuneCandidate c = base;
        c.analytic_default = false;
        c.nc = static_cast<index_t>(static_cast<double>(solved.n_blk) * f);
        c.label = "geometry";
        out.push_back(c);
    }

    // --- Stage 2: execution strategy at the analytic geometry. ----------
    // The overlap mode kAuto does not pick at this p.
    {
        TuneCandidate c = base;
        c.analytic_default = false;
        c.exec = exec_overlaps(CakeExec::kAuto, p) ? CakeExec::kSerial
                                                   : CakeExec::kPipelined;
        c.label = "executor";
        out.push_back(c);
    }
    for (const int pc : {p - 1, p / 2}) {
        if (pc >= 1 && pc != p) {
            TuneCandidate c = base;
            c.analytic_default = false;
            c.p = pc;
            c.label = "workers";
            out.push_back(c);
        }
    }
    // Every registered schedule kind is a candidate (all_schedule_kinds()
    // is THE registry — a new kind lands in the search automatically and
    // tests fail if one goes missing), ordered by the model's closed-form
    // traffic ranking so the budget meets the most promising ones first.
    // The recommended default is already candidate 0.
    for (const model::ScheduleTrafficRow& row :
         model::schedule_traffic_table(shape, solved)) {
        if (row.schedule == base.schedule) continue;
        TuneCandidate c = base;
        c.analytic_default = false;
        c.schedule = row.schedule;
        c.label = "schedule";
        out.push_back(c);
    }
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (!isa_supported(isa)) continue;
        TuneCandidate c = base;
        c.analytic_default = false;
        c.isa = isa;
        c.label = "isa";
        out.push_back(c);
    }
    return out;
}

TuneOutcome tune_shape(ThreadPool& pool, const MachineSpec& machine,
                       const TuneRequest& req, const std::string& fingerprint,
                       MeasureFn measure)
{
    CAKE_CHECK_MSG(req.shape.m >= 1 && req.shape.n >= 1 && req.shape.k >= 1,
                   "tune shape must be positive in every dimension");
    CAKE_CHECK_MSG(req.budget >= 1, "tune budget must be >= 1");
    const index_t elem_bytes = elem_bytes_for(req.dtype);
    const int p = std::min(machine.cores, pool.size());

    if (!measure) {
        measure = [&pool, &machine, &req](const TuneCandidate& c) {
            return req.dtype == "f64"
                ? measure_candidate<double>(pool, machine, req.shape, c,
                                            req.policy)
                : measure_candidate<float>(pool, machine, req.shape, c,
                                           req.policy);
        };
    }

    TuneOutcome outcome;
    const std::vector<TuneCandidate> candidates =
        generate_candidates(machine, req.shape, elem_bytes, p);

    const DtypeDesc* dd = find_dtype(req.dtype);
    CAKE_CHECK_MSG(dd != nullptr, "unknown dtype '" << req.dtype << "'");
    PlanErrorBound default_bound;
    bool have_default_bound = false;

    for (const TuneCandidate& raw : candidates) {
        if (static_cast<int>(outcome.results.size()) >= req.budget) {
            ++outcome.budget_dropped;
            continue;
        }
        TuneCandidate cand = raw;
        if (cand.label == "analytic-default" || cand.label.empty()) {
            cand.label = describe(cand);
        } else {
            cand.label += ": " + describe(cand);
        }
        // --- Safety gate: never time a plan the auditor rejects. --------
        const auto [mr, nr] = kernel_shape_for(req.dtype, cand.isa);
        const TilingOptions topts = tiling_of(cand, elem_bytes);
        const AuditReport audit = audit_cb_plan(machine, cand.p, mr, nr,
                                                req.shape, topts,
                                                cand.schedule);
        if (!audit.ok()) {
            CAKE_CHECK_MSG(!cand.analytic_default,
                           "the analytic default plan fails its own audit ("
                               << audit.codes() << ") — machine description "
                               << "and solver disagree");
            ++outcome.audit_rejected;
            continue;
        }

        // --- Kernel gate: never time a plan whose micro-kernel fails its
        // static proof. The default is the release-side admission gate
        // (kernel_ir.hpp); cake_tune injects the full kernelcheck prover.
        const std::string kname = kernel_name_for(req.dtype, cand.isa);
        std::string kwhy;
        const bool kernel_clean = req.kernel_gate
            ? req.kernel_gate(kname, &kwhy)
            : kernel_gate_ok(kname, &kwhy);
        if (!kernel_clean) {
            CAKE_CHECK_MSG(!cand.analytic_default,
                           "the analytic default's micro-kernel '"
                               << kname << "' fails kernelcheck: " << kwhy);
            ++outcome.kernelcheck_rejected;
            continue;
        }

        // --- Numerics gate: speed can never buy accuracy away. ----------
        // The static forward error bound of the candidate's (audited)
        // plan must not exceed the analytic default's — e.g. an
        // N-innermost schedule on a multi-kb shape spills every partial
        // column and pays a join-add per revisit, so it is refused here
        // however fast it measures.
        const PlanErrorBound bound = plan_error_bound(
            req.shape, audit.params, cand.schedule, *dd,
            /*beta_nonzero=*/false);
        if (cand.analytic_default) {
            default_bound = bound;
            have_default_bound = true;
        } else if (have_default_bound
                   && bound.rel_bound
                       > default_bound.rel_bound * (1.0 + 1e-9)) {
            ++outcome.numerics_rejected;
            continue;
        }

        CandidateResult r;
        r.candidate = cand;
        r.rel_error_bound = bound.rel_bound;
        r.seconds = measure(cand);
        r.measured_gflops =
            r.seconds > 0 ? req.shape.flops() / r.seconds / 1e9 : 0.0;
        r.predicted_gflops =
            model::predict_cake(machine, cand.p, req.shape,
                                model::KernelShape{mr, nr}, topts)
                .gflops;
        outcome.results.push_back(std::move(r));
    }
    CAKE_CHECK_MSG(!outcome.results.empty(),
                   "no candidate survived the audit gate");

    // The analytic default is results[0] by construction, so the winner is
    // >= it by definition of max.
    const CandidateResult* const analytic = &outcome.results.front();
    const CandidateResult* best = analytic;
    for (const CandidateResult& r : outcome.results) {
        if (r.measured_gflops > best->measured_gflops) best = &r;
    }
    // One fast timing is not a win on a shared host: the candidate must
    // beat the default again in both pairs of an interleaved re-timing.
    if (best != analytic) {
        std::vector<double>& t = outcome.confirm_seconds;
        for (int pair = 0; pair < 2; ++pair) {
            t.push_back(measure(analytic->candidate));
            t.push_back(measure(best->candidate));
        }
        if (!(t[1] < t[0] && t[3] < t[2])) best = analytic;
    }

    std::vector<model::MeasuredPlanPoint> points;
    points.reserve(outcome.results.size());
    for (const CandidateResult& r : outcome.results) {
        points.push_back({r.candidate.label, r.predicted_gflops,
                          r.measured_gflops});
    }
    outcome.disagreement =
        model::compare_rankings(points, req.model_tolerance);

    TunedEntry& w = outcome.winner;
    w.fingerprint = fingerprint;
    w.dtype = req.dtype;
    w.elem_bytes = elem_bytes;
    w.rel_error_bound = best->rel_error_bound;
    w.bucket_m = shape_bucket(req.shape.m);
    w.bucket_n = shape_bucket(req.shape.n);
    w.bucket_k = shape_bucket(req.shape.k);
    w.plan = best->candidate.overrides();
    w.tuned_shape = req.shape;
    w.measured_gflops = best->measured_gflops;
    w.analytic_gflops = outcome.results.front().measured_gflops;
    w.predicted_gflops = best->predicted_gflops;
    return outcome;
}

TuneOutcome tune_with_cache(ThreadPool& pool, const MachineSpec& machine,
                            const TuneRequest& req,
                            const std::string& cache_path,
                            const std::string& fingerprint,
                            MeasureFn measure)
{
    CacheLoadResult loaded = load_cache(cache_path);
    if (const TunedEntry* hit =
            loaded.cache.find(fingerprint, req.dtype,
                              elem_bytes_for(req.dtype), req.shape)) {
        TuneOutcome outcome;
        outcome.cache_hit = true;
        outcome.winner = *hit;
        outcome.cache_issues = std::move(loaded.issues);
        return outcome;
    }

    TuneOutcome outcome =
        tune_shape(pool, machine, req, fingerprint, std::move(measure));
    outcome.cache_issues = std::move(loaded.issues);
    loaded.cache.upsert(outcome.winner);
    std::string error;
    if (!save_cache(loaded.cache, cache_path, &error)) {
        outcome.cache_issues.push_back({"CACHE_IO", error});
    }
    return outcome;
}

}  // namespace tune
}  // namespace cake
