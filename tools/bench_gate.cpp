// bench_gate: diff one BENCH_<name>.json telemetry record against a
// committed baseline and fail on metric drift beyond tolerance.
//
// The bench side of the silicon-truth pipeline: every bench emits a
// structured record through bench/bench_json.hpp (machine fingerprint,
// plan context, per-case numeric metrics); this tool decides whether a
// fresh run still matches a baseline someone committed. Direction-aware:
// throughput metrics (gflops, gbps, speedup) only regress downward, cost
// metrics (seconds, bytes, stalls, divergence) only upward, anything
// unrecognised is two-sided. Extra cases or metrics in the run never fail
// — benches are allowed to grow.
//
// Usage:
//   bench_gate --baseline bench/baselines/BENCH_roofline_points.json
//              --run BENCH_roofline_points.json
//   bench_gate --baseline base.json --run run.json
//              --default-tol 0.15 --tol cake_ai=0.02 --tol gflop_s=0.5
//
// Flags:
//   --baseline FILE   committed reference record (required)
//   --run FILE        record to judge (required)
//   --default-tol X   relative tolerance when no override matches
//                     (default 0.10)
//   --tol METRIC=X    per-metric tolerance override (repeatable)
//   --quiet           suppress the per-metric PASS lines
//
// Exit codes: 0 = pass, 1 = regression (or malformed/mismatched records),
// 2 = baseline missing/unreadable (so CI can distinguish "never
// baselined" from "got slower").
#include <iostream>
#include <string>

#include "bench/bench_json.hpp"
#include "cli.hpp"

namespace {

using cake::bench::BenchLoad;
using cake::bench::BenchRecord;
using cake::bench::GateFinding;
using cake::bench::GateResult;
using cake::bench::GateSpec;

struct Options {
    std::string baseline;
    std::string run;
    GateSpec spec;
    bool quiet = false;
};

constexpr const char* kUsage =
    "usage: bench_gate --baseline FILE --run FILE\n"
    "                  [--default-tol X] [--tol METRIC=X]...\n"
    "                  [--quiet]\n";

Options parse_args(int argc, char** argv)
{
    // Usage errors exit 1: 2 is reserved for a missing baseline.
    const cake::cli::Args cli{argc, argv, "bench_gate", kUsage,
                              /*usage_exit=*/1};
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--baseline") {
            opt.baseline = cli.next(i, "--baseline");
        } else if (arg == "--run") {
            opt.run = cli.next(i, "--run");
        } else if (arg == "--default-tol") {
            opt.spec.default_tol = cli.number(cli.next(i, "--default-tol"),
                                              "--default-tol",
                                              /*non_negative=*/true);
        } else if (arg == "--tol") {
            const std::string kv = cli.next(i, "--tol");
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                cli.error("--tol expects METRIC=X, got '" + kv + "'");
            }
            opt.spec.tol[kv.substr(0, eq)] =
                cli.number(kv.substr(eq + 1), "--tol", /*non_negative=*/true);
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.error("help requested");
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    if (opt.baseline.empty()) cli.error("--baseline is required");
    if (opt.run.empty()) cli.error("--run is required");
    return opt;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);

    BenchRecord baseline;
    std::string error;
    switch (cake::bench::load_bench_json(opt.baseline, &baseline, &error)) {
        case BenchLoad::kOk: break;
        case BenchLoad::kMissing:
            std::cerr << "bench_gate: no baseline: " << error << "\n";
            return 2;
        case BenchLoad::kBad:
            std::cerr << "bench_gate: malformed baseline " << opt.baseline
                      << ": " << error << "\n";
            return 1;
    }
    BenchRecord run;
    if (cake::bench::load_bench_json(opt.run, &run, &error)
        != BenchLoad::kOk) {
        std::cerr << "bench_gate: cannot use run " << opt.run << ": "
                  << error << "\n";
        return 1;
    }

    if (baseline.bench != run.bench) {
        std::cerr << "bench_gate: record mismatch: baseline is '"
                  << baseline.bench << "', run is '" << run.bench << "'\n";
        return 1;
    }
    if (!baseline.machine_key.empty() && !run.machine_key.empty()
        && baseline.machine_key != run.machine_key) {
        std::cout << "note: machine keys differ (baseline "
                  << baseline.machine_key << ", run " << run.machine_key
                  << ") — cross-machine comparisons need generous "
                     "tolerances\n";
    }

    const GateResult result =
        cake::bench::gate_compare(baseline, run, opt.spec);
    if (!opt.quiet) {
        std::cout << "bench_gate: '" << run.bench << "', "
                  << result.compared << " metric(s) compared, default tol "
                  << opt.spec.default_tol << "\n";
    }
    for (const GateFinding& f : result.findings) {
        if (f.what == "missing-case") {
            std::cout << "FAIL " << f.case_name
                      << ": case missing from the run\n";
        } else if (f.what == "missing-metric") {
            std::cout << "FAIL " << f.case_name << " / " << f.metric
                      << ": metric missing from the run\n";
        } else {
            std::cout << "FAIL " << f.case_name << " / " << f.metric
                      << ": baseline " << f.baseline << ", run " << f.run
                      << " (" << (f.rel >= 0 ? "+" : "") << f.rel * 100
                      << "%, tol " << opt.spec.tol_of(f.metric) * 100
                      << "%)\n";
        }
    }
    std::cout << (result.ok ? "gate: PASS" : "gate: FAIL") << "\n";
    return result.ok ? 0 : 1;
}
