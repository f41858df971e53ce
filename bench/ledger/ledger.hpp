// cake_ledger: shared declarations of the end-to-end + per-layer benchmark.
//
// One process runs one workload: a closed loop in which a single caller
// thread drives one reused GEMM context for a fixed window, with a speed
// probe between calls. Everything here calls only the public headers under
// src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "threading/thread_pool.hpp"

namespace ledger {

using cake::GemmShape;
using cake::index_t;

/// Team width of every end-to-end context: the caller alone. On a shared
/// guest a wider team stalls at its barriers whenever the host takes any
/// one of its vCPUs away, and no probe can say when that happened
/// (README.md, "Noise").
inline constexpr int kThreads = 1;

/// Team width at which the per-layer pass measures the threading layer,
/// the p = 4 ablations and the parallel scan: the host's 4 vCPUs.
inline constexpr int kLayerWidth = 4;

/// One output metric. `value` is printed with all its digits.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one process prints. `reference` metrics are printed but are not
/// part of the final JSON line (they move nothing; see README.md).
struct Report {
    std::vector<Metric> e2e;
    std::vector<Metric> layer;
    std::vector<Metric> reference;
    std::vector<std::string> notes;
};

/// Calls attempted and failed over the whole process. A call fails when it
/// throws or when its sampled output misses the oracle.
struct Tally {
    long attempted = 0;
    long failed = 0;
};

/// A workload: a fixed shape, or (shape.m == 0) a cycle of small shapes.
/// See README.md for why each exists.
struct WorkloadSpec {
    const char* name;
    bool int8;
    GemmShape shape;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// The shape cycle of `spec` for `seed`: one shape, or one fixed set of
/// 64 shapes with m, n, k drawn uniform in [32, 256], in a seeded order.
std::vector<GemmShape> shape_cycle(const WorkloadSpec& spec,
                                   std::uint64_t seed);

/// Index of the median-volume shape of the cycle, the same shape for every
/// seed: the module-level measurements use it.
std::size_t representative_shape(const std::vector<GemmShape>& shapes);

/// Element types and GEMM context of the f32 path.
struct F32 {
    using A = float;
    using B = float;
    using C = float;
    using Ctx = cake::CakeGemm;
};

/// Element types and GEMM context of the u8 x s8 -> s32 path.
struct I8 {
    using A = std::uint8_t;
    using B = std::int8_t;
    using C = std::int32_t;
    using Ctx = cake::CakeGemmInt8;
};

/// Inputs of one run. Every shape of the cycle uses the leading parts of
/// the same buffers with packed leading dimensions (lda = k, ldb = ldc = n).
template <class F>
struct Operands {
    std::vector<GemmShape> shapes;
    cake::AlignedBuffer<typename F::A> a;
    cake::AlignedBuffer<typename F::B> b;
    cake::AlignedBuffer<typename F::C> c;
};

/// Seeded operands: f32 uniform in [-1, 1); u8 A in [0, 127] (the range
/// the int8 kernels are exact on) and s8 B in [-127, 127].
template <class F>
Operands<F> make_operands(std::vector<GemmShape> shapes, std::uint64_t seed);

/// Worst-case |error| / sum|a||b| the plan that just ran promises (f32);
/// unused for int8, which must be exact.
double rel_bound(const cake::CakeGemm& ctx, const GemmShape& s);
double rel_bound(const cake::GotoGemm& ctx, const GemmShape& s);
inline double rel_bound(const cake::CakeGemmInt8&, const GemmShape&)
{
    return 0;
}

/// Fill C of shape `s` with a value no correct call can leave behind
/// (NaN for f32, INT32_MIN for int32).
template <class F>
void poison_c(Operands<F>& op, const GemmShape& s);

/// Compare a seeded sample of about 16 x 16 entries of C against a
/// long-double (f32) or int64 (int8) oracle.
template <class F>
bool sample_ok(const Operands<F>& op, const GemmShape& s, double bound,
               cake::Rng& rng);

/// Makes every benchmark call: times it, counts it, and checks its output
/// when asked to. C is poisoned first, so a call that skips a write fails.
template <class F>
class Checker {
public:
    Checker(Tally& tally, std::uint64_t seed) : tally_(tally), rng_(seed) {}

    /// Run shape `idx` of the cycle on `ctx`; the call's seconds, or
    /// nullopt if it threw. A wrong answer still returns its time.
    template <class Ctx>
    std::optional<double> call(Ctx& ctx, Operands<F>& op, std::size_t idx,
                               bool check)
    {
        if (check) poison_c(op, op.shapes[idx]);
        const std::optional<double> seconds = call_unchecked(ctx, op, idx);
        if (seconds && check) verify(ctx, op, idx);
        return seconds;
    }

    /// The timed call alone; the caller poisons C and verifies.
    template <class Ctx>
    std::optional<double> call_unchecked(Ctx& ctx, Operands<F>& op,
                                         std::size_t idx)
    {
        const GemmShape& s = op.shapes[idx];
        ++tally_.attempted;
        try {
            cake::Timer t;
            ctx.multiply(op.a.data(), s.k, op.b.data(), s.n, op.c.data(),
                         s.n, s.m, s.n, s.k);
            return t.seconds();
        } catch (const std::exception&) {
            ++tally_.failed;
            return std::nullopt;
        }
    }

    /// Check the sampled C of the call just made on `ctx`.
    template <class Ctx>
    void verify(const Ctx& ctx, const Operands<F>& op, std::size_t idx)
    {
        const GemmShape& s = op.shapes[idx];
        if (!sample_ok(op, s, rel_bound(ctx, s), rng_)) ++tally_.failed;
    }

private:
    Tally& tally_;
    cake::Rng rng_;
};

/// The host's speed at the moment, on the calling thread.
///
/// The host is a guest on a shared machine. What the other guests leave it
/// moves every call of a window together, by up to a third from one minute
/// to the next. A probe runs fixed work shaped like a GEMM's two halves: a
/// register-blocked FMA tile over L1/L2-resident slivers, and a copy of
/// 2 MiB through the LLC. The work is written and compiled here, so no
/// library change moves it. A call timed near a slow probe ran on a slow
/// host, and is scaled back to the reference speed (see Samples).
class SpeedProbe {
public:
    SpeedProbe();

    /// Seconds of one probe: about 0.7 ms at the reference speed.
    double seconds();

private:
    cake::AlignedBuffer<float> a_, b_, c_;
    cake::AlignedBuffer<char> src_, dst_;
};

/// Wall-clock seconds between two probes of a loop.
inline constexpr double kProbeEvery = 0.05;

/// The probe's seconds at the reference speed: about what it takes on this
/// host (a 4-vCPU Xeon guest) while the other guests are quiet. Timings
/// are reported at this speed.
inline constexpr double kProbeReferenceSeconds = 0.0007;

/// Probes on each side of a call whose median sets the call's speed.
inline constexpr std::size_t kProbeSpan = 2;

/// Per-call samples of one loop, and the probes taken during it. The arrays
/// are allocated and touched up front, so the process's peak RSS does not
/// grow with the call rate; calls past `capacity` are not recorded.
struct Samples {
    explicit Samples(std::size_t capacity)
        : call_s(capacity), shape(capacity), probe_at(capacity)
    {
        probe_s.reserve(4096);
    }

    std::vector<double> call_s;           ///< first `count` entries are valid
    std::vector<std::uint32_t> shape;     ///< cycle index of each sample
    std::vector<std::uint32_t> probe_at;  ///< last probe before each sample
    std::vector<double> probe_s;          ///< SpeedProbe::seconds, in order
    std::size_t count = 0;

    void add(std::size_t idx, double seconds)
    {
        if (count == call_s.size() || probe_s.empty()) return;
        call_s[count] = seconds;
        shape[count] = static_cast<std::uint32_t>(idx);
        probe_at[count] = static_cast<std::uint32_t>(probe_s.size() - 1);
        ++count;
    }

    [[nodiscard]] std::vector<double> seconds() const
    {
        return {call_s.begin(),
                call_s.begin() + static_cast<std::ptrdiff_t>(count)};
    }

    /// kProbeReferenceSeconds over the median of the probes within
    /// kProbeSpan of probe `j`: the factor that brings a time measured
    /// next to that probe to the reference speed.
    [[nodiscard]] double scale(std::size_t j) const;

    /// Each call's seconds at the reference speed.
    [[nodiscard]] std::vector<double> ref_seconds() const;

    /// Median seconds of each shape's calls; 0 for a shape with none.
    [[nodiscard]] std::vector<double> shape_medians(std::size_t shapes) const;

    /// Total 2mnk ops / total `secs` (one entry per call), in G/s (int
    /// GOP/s for int8).
    [[nodiscard]] double gops(const std::vector<GemmShape>& shapes,
                              const std::vector<double>& secs) const;
};

/// Closed loop over the shape cycle for `seconds`, then one last call,
/// recorded into `out`, with a probe every kProbeEvery seconds. C is
/// poisoned and checked before every 8th call and the last one.
/// `on_call(idx)` runs after each successful call.
template <class F, class Ctx, class OnCall>
void run_loop(Ctx& ctx, Operands<F>& op, double seconds, Checker<F>& chk,
              SpeedProbe& probe, Samples& out, OnCall&& on_call)
{
    cake::Timer window;
    double next_probe = 0;
    for (std::size_t i = 0;; ++i) {
        const double now = window.seconds();
        if (now >= next_probe) {
            out.probe_s.push_back(probe.seconds());
            next_probe = now + kProbeEvery;
        }
        const bool last = now >= seconds;
        const std::size_t idx = i % op.shapes.size();
        if (const auto t = chk.call(ctx, op, idx, last || i % 8 == 7)) {
            out.add(idx, *t);
            on_call(idx);
        }
        if (last) break;
    }
    out.probe_s.push_back(probe.seconds());
}

/// The run_loop hook of a loop that records nothing more.
inline void no_hook(std::size_t) {}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// One call's CakeStats phases as shares of its total seconds. `stall` is
/// the rest: barrier waits, dispatch and planning.
struct PhaseSplit {
    double pack = 0, compute = 0, flush = 0, stall = 0;
    double overlap = 0;    ///< CakeStats::overlap_efficiency
    double compute_s = 0;  ///< CakeStats::compute_seconds
};

PhaseSplit phase_split(const cake::CakeStats& st);

/// Everything the per-layer pass reads.
template <class F>
struct LayerInputs {
    const WorkloadSpec& spec;
    Operands<F>& op;
    SpeedProbe& probe;
    const Samples& window;                         ///< the timed window
    const std::vector<PhaseSplit>& phases;         ///< one per sample
    const std::vector<cake::CakeStats>& per_shape; ///< warm-up call of each
    double seconds;
    std::string trace_dir;  ///< write the Perfetto JSON here when set
    Checker<F>& chk;
};

/// The per-layer pass and the traced pass; fills report.layer,
/// report.reference and report.notes.
template <class F>
void run_layers(const LayerInputs<F>& in, Report& report);

}  // namespace ledger
