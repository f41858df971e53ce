// cake_tune: the empirical plan autotuner's CLI.
//
// Benchmarks the analytic §4.3 plan against a guided neighbourhood of
// alternatives on THIS host (geometry, schedule, executor, worker count,
// ISA), reports where the Eq. 2 model's ranking disagrees with the
// hardware, and persists the winner in the versioned tuning cache
// (~/.cache/cake/tune.json or $CAKE_TUNE_CACHE) keyed by machine
// fingerprint, dtype and shape bucket. A second --search of the same
// shape is a pure cache hit: nothing is re-benchmarked.
//
// Every candidate passes audit_cb_plan before it is timed; in builds
// carrying the schedule-IR analysis library the winning plan is
// additionally verified race-free and exactly-covering by the symbolic
// verifier before the tool reports success.
//
// Usage:
//   cake_tune --search [--shape MxNxK] [--dtype f32|f64] [--budget N]
//   cake_tune --smoke                    (tiny-budget CI self-check)
//   cake_tune --show                     (print the cache)
//   cake_tune --evict [--shape MxNxK]    (drop this host's entries)
//   common: [--cache PATH] [--reps N] [--warmup N]
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/issue.hpp"
#include "core/audit.hpp"
#include "core/cake_gemm.hpp"
#include "machine/fingerprint.hpp"
#include "machine/machine.hpp"
#include "threading/thread_pool.hpp"
#include "tune/tune.hpp"

#if defined(CAKE_TUNE_HAS_SCHEDIR)
#include "analysis/kernelcheck.hpp"
#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "kernel/kernel_ir.hpp"
#endif

namespace {

using cake::index_t;
using cake::tune::TuneOutcome;
using cake::tune::TuneRequest;

enum class Mode { kNone, kSearch, kSmoke, kShow, kEvict };

struct Options {
    Mode mode = Mode::kNone;
    std::optional<cake::GemmShape> shape;
    std::string dtype = "f32";
    int budget = 24;
    int reps = 3;
    int warmup = 1;
    std::string cache_path;  // empty = default_cache_path()
};

constexpr const char* kUsage =
    "usage: cake_tune --search|--smoke|--show|--evict\n"
    "                 [--shape MxNxK] [--dtype f32|f64]\n"
    "                 [--budget N] [--reps N] [--warmup N]\n"
    "                 [--cache PATH]\n";

Options parse_args(int argc, char** argv)
{
    const cake::cli::Args cli{argc, argv, "cake_tune", kUsage};
    Options opt;
    auto set_mode = [&](Mode m) {
        if (opt.mode != Mode::kNone) {
            cli.error("exactly one of --search/--smoke/--show/--evict");
        }
        opt.mode = m;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--search") {
            set_mode(Mode::kSearch);
        } else if (arg == "--smoke") {
            set_mode(Mode::kSmoke);
        } else if (arg == "--show") {
            set_mode(Mode::kShow);
        } else if (arg == "--evict") {
            set_mode(Mode::kEvict);
        } else if (arg == "--shape") {
            opt.shape = cli.shape(cli.next(i, "--shape"));
        } else if (arg == "--dtype") {
            opt.dtype = cli.next(i, "--dtype");
            if (opt.dtype != "f32" && opt.dtype != "f64") {
                cli.error("--dtype expects f32 or f64");
            }
        } else if (arg == "--budget") {
            opt.budget = cli.integer(cli.next(i, "--budget"), "--budget");
        } else if (arg == "--reps") {
            opt.reps = cli.integer(cli.next(i, "--reps"), "--reps");
        } else if (arg == "--warmup") {
            opt.warmup = cli.integer(cli.next(i, "--warmup"), "--warmup");
        } else if (arg == "--cache") {
            opt.cache_path = cli.next(i, "--cache");
        } else if (arg == "--help" || arg == "-h") {
            cli.error("help requested");
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    if (opt.mode == Mode::kNone) {
        cli.error("exactly one of --search/--smoke/--show/--evict");
    }
    return opt;
}

std::string cache_path_of(const Options& opt)
{
    return opt.cache_path.empty() ? cake::tune::default_cache_path()
                                  : opt.cache_path;
}

/// The kernel admission gate the searches run under. With the analysis
/// library present this is the full kernelcheck prover (symbolic
/// obligations + registry binding + binary lane fingerprint); without it
/// TuneRequest's empty default already applies the release-side static
/// gate (kernel_gate_ok), so we leave the hook unset.
cake::tune::KernelGateFn full_kernel_gate()
{
#if defined(CAKE_TUNE_HAS_SCHEDIR)
    return [](const std::string& kernel, std::string* why) {
        const cake::KernelIr* ir = cake::kernel_ir_for(kernel);
        if (ir == nullptr) {
            if (why != nullptr) {
                *why = "micro-kernel '" + kernel + "' has no IR descriptor";
            }
            return false;
        }
        const cake::kernelcheck::KernelReport report =
            cake::kernelcheck::check_kernel(*ir);
        if (!report.ok() && why != nullptr) {
            std::string msg = "[";
            msg += report.codes();
            msg += "] ";
            msg += report.issues.front().message;
            *why = msg;
        }
        return report.ok();
    };
#else
    return {};
#endif
}

/// Re-solve the winner's geometry and prove the schedule it implies is
/// race-free and exactly covering with the symbolic IR verifier. In
/// builds without the analysis library this degrades to the audit-only
/// guarantee (every candidate was already audited before timing).
bool verify_winner(const cake::MachineSpec& machine,
                   const cake::tune::TunedEntry& winner)
{
#if defined(CAKE_TUNE_HAS_SCHEDIR)
    const cake::CbBlockParams params =
        cake::tune::winner_params(machine, winner);
    const cake::ScheduleKind kind = winner.plan.schedule
        ? *winner.plan.schedule
        : cake::ScheduleKind::kKFirstSerpentine;
    const cake::schedir::Exec exec =
        winner.plan.exec && *winner.plan.exec == cake::CakeExec::kSerial
        ? cake::schedir::Exec::kSerial
        : cake::schedir::Exec::kPipelined;
    const cake::schedir::ScheduleIR ir =
        cake::schedir::extract_cake_ir(winner.tuned_shape, params, kind, exec);
    const cake::schedir::VerifyReport report =
        cake::schedir::verify_schedule_ir(ir);
    if (report.ok()) {
        std::cout << "  schedule-IR verify: PASS (" << ir.ops.size()
                  << " ops)\n";
        return true;
    }
    std::cout << "  schedule-IR verify: FAIL\n";
    cake::print_issues(std::cout, report.issues, "    ");
    return false;
#else
    (void)machine;
    (void)winner;
    std::cout << "  schedule-IR verify: skipped (analysis library not in "
                 "this build; audit gate already vetted every candidate)\n";
    return true;
#endif
}

void print_outcome(const cake::GemmShape& shape, const TuneOutcome& outcome)
{
    std::cout << "shape " << shape.m << "x" << shape.n << "x" << shape.k
              << (outcome.cache_hit ? "  [cache hit — nothing re-timed]"
                                    : "")
              << "\n";
    cake::print_issues(std::cout, outcome.cache_issues);
    if (!outcome.cache_hit) {
        std::cout << "  " << std::left << std::setw(44) << "candidate"
                  << std::right << std::setw(12) << "measured"
                  << std::setw(12) << "predicted" << "\n";
        for (const auto& r : outcome.results) {
            std::cout << "  " << std::left << std::setw(44)
                      << r.candidate.label << std::right << std::fixed
                      << std::setprecision(2) << std::setw(10)
                      << r.measured_gflops << " GF" << std::setw(10)
                      << r.predicted_gflops << " GF"
                      << (r.candidate.analytic_default ? "  <- analytic" : "")
                      << "\n";
        }
        std::cout << "  audit-rejected untimed: " << outcome.audit_rejected
                  << ", kernelcheck-rejected: "
                  << outcome.kernelcheck_rejected
                  << ", budget-dropped: " << outcome.budget_dropped << "\n";
        if (!outcome.confirm_seconds.empty()) {
            const std::vector<double>& t = outcome.confirm_seconds;
            std::cout << "  re-timed default/fastest: " << std::setprecision(3)
                      << t[0] * 1e3 << "/" << t[1] * 1e3 << " ms, "
                      << t[2] * 1e3 << "/" << t[3] * 1e3 << " ms\n";
        }
        if (outcome.disagreement.agree()) {
            std::cout
                << "  model agreement: analytic ranking matches hardware\n";
        } else {
            std::cout << "  model DISAGREES with hardware on "
                      << outcome.disagreement.flips.size() << " pair(s):\n";
            for (const auto& flip : outcome.disagreement.flips) {
                std::cout << "    model prefers ["
                          << flip.preferred_by_model.label << "] ("
                          << flip.preferred_by_model.predicted_gflops
                          << " GF pred) but hardware prefers ["
                          << flip.preferred_by_machine.label << "] ("
                          << flip.preferred_by_machine.measured_gflops
                          << " GF meas)\n";
            }
        }
    }
    const auto& w = outcome.winner;
    std::cout << "  winner: measured " << std::fixed << std::setprecision(2)
              << w.measured_gflops << " GF vs analytic "
              << w.analytic_gflops << " GF";
    if (w.analytic_gflops > 0) {
        std::cout << " (" << std::setprecision(1) << std::showpos
                  << (w.measured_gflops / w.analytic_gflops - 1.0) * 100.0
                  << "%" << std::noshowpos << ")";
    }
    std::cout << "\n";
}

int cmd_search(const Options& opt)
{
    const cake::MachineSpec machine = cake::host_machine();
    const std::string fingerprint = cake::host_fingerprint().key();
    const std::string path = cache_path_of(opt);
    cake::ThreadPool pool(machine.cores);

    std::cout << "fingerprint: " << cake::host_fingerprint().json() << "\n"
              << "cache: " << path << "\n";

    // Table-2-style presets (square Fig. 10 protocol sizes plus the
    // shallow-K DNN panel) unless the caller pinned a shape.
    std::vector<cake::GemmShape> shapes;
    if (opt.shape) {
        shapes.push_back(*opt.shape);
    } else {
        shapes = {{512, 512, 512}, {1024, 1024, 1024}, {2000, 2000, 96}};
    }

    bool all_ok = true;
    for (const cake::GemmShape& shape : shapes) {
        TuneRequest req;
        req.shape = shape;
        req.dtype = opt.dtype;
        req.budget = opt.budget;
        req.policy = {opt.warmup, opt.reps};
        req.kernel_gate = full_kernel_gate();
        const TuneOutcome outcome =
            cake::tune::tune_with_cache(pool, machine, req, path, fingerprint);
        print_outcome(shape, outcome);
        if (!verify_winner(machine, outcome.winner)) all_ok = false;
        if (outcome.winner.measured_gflops
            < outcome.winner.analytic_gflops * 0.98) {
            // Cannot happen for a fresh search (the analytic plan is a
            // candidate); guards stale cache entries from older runs.
            std::cout << "  WARNING: cached winner now measures worse than "
                         "the analytic plan; consider --evict\n";
            all_ok = false;
        }
    }
    return all_ok ? 0 : 1;
}

int cmd_smoke(const Options& opt)
{
    const cake::MachineSpec machine = cake::host_machine();
    const std::string fingerprint = cake::host_fingerprint().key();
    const std::string path = cache_path_of(opt);
    cake::ThreadPool pool(machine.cores);

    TuneRequest req;
    req.shape = opt.shape ? *opt.shape : cake::GemmShape{192, 192, 192};
    req.dtype = opt.dtype;
    req.budget = 4;  // tiny: analytic default + a few neighbours
    req.policy = {0, 1};
    req.kernel_gate = full_kernel_gate();

    // Pass 1 must search (write the cache), pass 2 must be a pure hit.
    const TuneOutcome first = cake::tune::tune_with_cache(
        pool, machine, req, path, fingerprint);
    print_outcome(req.shape, first);
    const TuneOutcome second = cake::tune::tune_with_cache(
        pool, machine, req, path, fingerprint);
    if (!second.cache_hit) {
        std::cout << "SMOKE FAIL: second search did not hit the cache\n";
        return 1;
    }
    if (second.winner.measured_gflops != first.winner.measured_gflops) {
        std::cout << "SMOKE FAIL: cache round-trip changed the winner\n";
        return 1;
    }
    if (!verify_winner(machine, first.winner)) return 1;

    // The driver consumes the cached winner through the plan-source hook.
    cake::tune::CachedPlanSource source =
        cake::tune::CachedPlanSource::for_host(path);
    cake::PlanRequest preq;
    preq.m = req.shape.m;
    preq.n = req.shape.n;
    preq.k = req.shape.k;
    preq.elem_bytes = 4;
    preq.p = machine.cores;
    if (!source.lookup(preq)) {
        std::cout << "SMOKE FAIL: CachedPlanSource misses the entry just "
                     "written\n";
        return 1;
    }
    std::cout << "SMOKE PASS: searched, cached, re-read, verified\n";
    return 0;
}

int cmd_show(const Options& opt)
{
    const std::string path = cache_path_of(opt);
    const cake::tune::CacheLoadResult loaded = cake::tune::load_cache(path);
    std::cout << "fingerprint: " << cake::host_fingerprint().json() << "\n"
              << "cache: " << path
              << (loaded.file_existed ? "" : " (absent)") << "\n";
    cake::print_issues(std::cout, loaded.issues);
    for (const auto& e : loaded.cache.entries) {
        std::cout << "  " << e.dtype << " bucket " << e.bucket_m << "x"
                  << e.bucket_n << "x" << e.bucket_k << " (tuned at "
                  << e.tuned_shape.m << "x" << e.tuned_shape.n << "x"
                  << e.tuned_shape.k << "): " << std::fixed
                  << std::setprecision(2) << e.measured_gflops
                  << " GF (analytic " << e.analytic_gflops << " GF)"
                  << (e.fingerprint == cake::host_fingerprint().key()
                          ? ""
                          : "  [other machine]")
                  << "\n";
    }
    return loaded.issues.empty() ? 0 : 1;
}

int cmd_evict(const Options& opt)
{
    const std::string path = cache_path_of(opt);
    const std::string fingerprint = cake::host_fingerprint().key();
    cake::tune::CacheLoadResult loaded = cake::tune::load_cache(path);
    cake::print_issues(std::cout, loaded.issues);
    auto& entries = loaded.cache.entries;
    const auto before = entries.size();
    std::erase_if(entries, [&](const cake::tune::TunedEntry& e) {
        if (e.fingerprint != fingerprint) return false;
        if (opt.shape
            && (e.bucket_m != cake::tune::shape_bucket(opt.shape->m)
                || e.bucket_n != cake::tune::shape_bucket(opt.shape->n)
                || e.bucket_k != cake::tune::shape_bucket(opt.shape->k))) {
            return false;
        }
        return true;
    });
    std::cout << "evicted " << before - entries.size() << " of " << before
              << " entries\n";
    std::string error;
    if (!cake::tune::save_cache(loaded.cache, path, &error)) {
        std::cerr << "cake_tune: save failed: " << error << "\n";
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);
    try {
        switch (opt.mode) {
            case Mode::kSearch: return cmd_search(opt);
            case Mode::kSmoke: return cmd_smoke(opt);
            case Mode::kShow: return cmd_show(opt);
            case Mode::kEvict: return cmd_evict(opt);
            case Mode::kNone: break;
        }
    } catch (const std::exception& e) {
        std::cerr << "cake_tune: " << e.what() << "\n";
        return 1;
    }
    return 2;
}
