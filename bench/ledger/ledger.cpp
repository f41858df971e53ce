// cake_ledger: the end-to-end + per-layer GEMM benchmark.
//
//   cake_ledger --workload W --seed N --seconds S --trace 0|1
//               [--trace-dir DIR] [--smoke]
//
// One workload per process. --trace 0 reports the end-to-end metrics,
// measured with tracing off; their timings are scaled to the reference
// speed of SpeedProbe (ledger.hpp). --trace 1 runs a half-length window,
// then the per-layer pass and a traced pass, and reports the per-layer
// metrics. Every metric is printed by name with its unit; the last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
// --smoke exits nonzero when any call failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "ledger.hpp"
#include "machine/fingerprint.hpp"
#include "obs/trace.hpp"

// Debug, checked, race-checked, sanitized and trace-disabled builds measure
// a different program (or a different metric set); CMakeLists.txt refuses
// all but the first at configure time.
#ifndef NDEBUG
#error "cake_ledger measures release builds only (NDEBUG must be defined)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "cake_ledger does not measure sanitizer builds"
#endif
#if !CAKE_OBS_ENABLED
#error "cake_ledger needs the obs tracer (configure without CAKE_TRACE_DISABLED)"
#endif

namespace ledger {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    std::string trace_dir;
    bool smoke = false;
};

std::optional<Args> parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                args.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                args.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") return std::nullopt;
                args.trace = value == "1";
            } else if (flag == "--trace-dir") {
                args.trace_dir = value;
            } else {
                return std::nullopt;
            }
        } catch (const std::exception&) {
            return std::nullopt;
        }
    }
    if (!have_workload || !(args.seconds > 0)) return std::nullopt;
    return args;
}

/// Knobs that would change what the library runs. Each is recorded and
/// then unset, so every run measures the same program.
void pin_environment(std::vector<std::string>& notes)
{
    for (const char* name : {"CAKE_FORCE_ISA", "CAKE_DRAM_BW_GBS",
                             "CAKE_TUNE_CACHE", "CAKE_TRACE",
                             "CAKE_TRACE_CAPACITY"}) {
        const char* value = std::getenv(name);
        notes.push_back(std::string("env ") + name + "="
                        + (value ? std::string(value) + " (unset for the run)"
                                 : "<unset>"));
        ::unsetenv(name);
    }
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Set-up rounds per run, spread over the window; setup_s is the median of
/// their times at the reference speed.
constexpr std::size_t kSetupRounds = 20;

/// One fresh round of pool + context construction + the first call of
/// every shape of the cycle. Input generation, poisoning and checking are
/// not counted.
template <class F>
double setup_round(Operands<F>& op, Checker<F>& chk,
                   const cake::CakeOptions& opts)
{
    std::optional<cake::ThreadPool> pool;
    std::optional<typename F::Ctx> ctx;
    cake::Timer t;
    pool.emplace(kThreads);
    ctx.emplace(*pool, opts);
    double seconds = t.seconds();
    for (std::size_t i = 0; i < op.shapes.size(); ++i) {
        poison_c(op, op.shapes[i]);
        if (const auto s = chk.call_unchecked(*ctx, op, i)) {
            seconds += *s;
            chk.verify(*ctx, op, i);
        }
    }
    return seconds;
}

template <class F>
Report run_workload(const WorkloadSpec& spec, const Args& args, Tally& tally)
{
    Report report;
    // Allocated first, so the allocator cannot hand the window's samples
    // a block whose pages are already resident in some runs and not in
    // others, and the peak RSS repeats.
    Samples samples(std::size_t{1} << 20);
    Operands<F> op = make_operands<F>(shape_cycle(spec, args.seed), args.seed);
    Checker<F> chk(tally, args.seed ^ 0xC4EC4EC4ULL);
    cake::CakeOptions opts;
    opts.p = kThreads;  // analytic plans: plan_source stays nullptr

    cake::ThreadPool pool(kThreads);
    SpeedProbe probe;
    typename F::Ctx ctx(pool, opts);
    const std::size_t cycle = op.shapes.size();
    std::vector<cake::CakeStats> per_shape(cycle);
    for (std::size_t i = 0; i < std::max<std::size_t>(2, cycle); ++i) {
        (void)chk.call(ctx, op, i % cycle, true);  // warm-up, untimed
        per_shape[i % cycle] = ctx.stats();
    }

    // A traced run spends half its time in this window and the rest in
    // the layer and traced passes, so both kinds of run take about as long.
    // The set-up rounds are spread over the window, so that, like the
    // calls, each is scaled by the probes taken around it.
    std::vector<PhaseSplit> phases;
    std::vector<std::pair<double, std::size_t>> setup;  // seconds, probe
    const double window_s = args.trace ? args.seconds / 2 : args.seconds;
    cake::Timer since;
    run_loop(ctx, op, window_s, chk, probe, samples, [&](std::size_t) {
        if (args.trace) phases.push_back(phase_split(ctx.stats()));
        const double due = window_s * static_cast<double>(setup.size())
            / static_cast<double>(kSetupRounds);
        if (setup.size() < kSetupRounds && since.seconds() >= due) {
            setup.emplace_back(setup_round(op, chk, opts),
                               samples.probe_s.size() - 1);
        }
    });
    const double rss = peak_rss_mb();

    std::vector<double> setup_raw, setup_ref;
    for (const auto& [seconds, j] : setup) {
        setup_raw.push_back(seconds);
        setup_ref.push_back(seconds * samples.scale(j));
    }
    const std::vector<double> raw = samples.seconds();
    const std::vector<double> ref = samples.ref_seconds();
    report.e2e = {
        {"gflops", samples.gops(op.shapes, ref), "GFLOP/s"},
        {"call_ms_p50", quantile(ref, 0.5) * 1e3, "ms"},
        {"call_ms_p90", quantile(ref, 0.9) * 1e3, "ms"},
        {"setup_s", cake::median(setup_ref), "s"},
        {"peak_rss_mb", rss, "MB"},
    };
    report.reference = {
        {"raw.gflops", samples.gops(op.shapes, raw), "GFLOP/s"},
        {"raw.call_ms_p50", quantile(raw, 0.5) * 1e3, "ms"},
        {"raw.call_ms_p90", quantile(raw, 0.9) * 1e3, "ms"},
        {"raw.setup_s", cake::median(setup_raw), "s"},
        {"probe_ms", cake::median(samples.probe_s) * 1e3, "ms"},
    };
    report.notes.push_back(
        "window calls " + std::to_string(samples.count) + ", beyond p90 "
        + std::to_string(samples.count - samples.count * 9 / 10)
        + ", shapes in cycle " + std::to_string(cycle) + ", probes "
        + std::to_string(samples.probe_s.size()) + ", set-up rounds "
        + std::to_string(setup.size()));

    if (args.trace) {
        run_layers<F>({spec, op, probe, samples, phases, per_shape,
                       args.seconds, args.trace_dir, chk},
                      report);
    }
    return report;
}

void print_metric(const char* block, const Metric& m)
{
    std::printf("%-9s %-28s %22.10g %s\n", block, m.name.c_str(), m.value,
                m.unit.c_str());
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv)
{
    using namespace ledger;
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
        std::cerr << "usage: cake_ledger --workload W --seed N --seconds S "
                     "--trace 0|1 [--trace-dir DIR] [--smoke]\n";
        return 2;
    }
    const WorkloadSpec* spec = find_workload(args->workload);
    if (spec == nullptr) {
        std::cerr << "cake_ledger: unknown workload '" << args->workload
                  << "'; one of:";
        for (const WorkloadSpec& w : workloads()) std::cerr << ' ' << w.name;
        std::cerr << "\n";
        return 2;
    }

    std::vector<std::string> notes;
    pin_environment(notes);
    Tally tally;
    Report report;
    try {
        report = spec->int8 ? run_workload<I8>(*spec, *args, tally)
                            : run_workload<F32>(*spec, *args, tally);
    } catch (const std::exception& e) {
        std::cerr << "cake_ledger: " << e.what() << "\n";
        return 1;
    }

    std::printf("ledger    workload=%s seed=%llu window_s=%g trace=%d\n",
                spec->name, static_cast<unsigned long long>(args->seed),
                args->seconds, args->trace ? 1 : 0);
    std::printf("ledger    host %s\n", cake::host_fingerprint().json().c_str());
    std::printf("ledger    build %s, %s\n", LEDGER_BUILD_TYPE, __VERSION__);
    for (const std::string& n : notes) std::printf("ledger    %s\n", n.c_str());
    for (const std::string& n : report.notes) {
        std::printf("ledger    %s\n", n.c_str());
    }
    for (const Metric& m : report.e2e) print_metric("e2e", m);
    const double fail_frac = tally.attempted > 0
        ? static_cast<double>(tally.failed)
            / static_cast<double>(tally.attempted)
        : 1.0;
    print_metric("e2e", {"fail_frac", fail_frac, "frac"});
    for (const Metric& m : report.layer) print_metric("layer", m);
    for (const Metric& m : report.reference) print_metric("reference", m);

    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", tally.attempted, tally.failed);
    const std::vector<Metric>& out = args->trace ? report.layer : report.e2e;
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    }
    std::printf("}}\n");
    return args->smoke && !correct ? 1 : 0;
}
