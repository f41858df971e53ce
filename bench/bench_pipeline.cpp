// Pipelined-executor study (paper Fig. 7, measured on the real host):
// wall-clock phase attribution of the CB-block loop with the packing IO
// overlap turned off (serial executor: pack -> compute in strict
// sequence, C accumulated in place) and on (pipelined executor: block i+1's non-shared surfaces
// pack while block i computes, on a persistent spin-barrier team).
//
// Shapes are chosen so packing is a significant share of serial runtime
// (§5.2.1: skewed shapes) plus a large square control where compute
// dominates and the two executors should converge. Expected result: where
// packing is >= 10% of the serial wall time, overlap-on beats overlap-off
// and hides a measurable fraction of the pack time under compute
// (overlap_efficiency > 0) — the exposed-IO stall the paper attributes to
// non-constant-bandwidth schedules shrinks.
//
// Environment:
//   CAKE_BENCH_P       worker count (default: all host cores)
//   CAKE_BENCH_REPS    timed repetitions per config, best kept (default 3)
//   CAKE_BENCH_CSV_DIR also write tables as CSV into this directory
// Flags:
//   --trace-dir DIR    after the timed reps, re-run each configuration once
//                      under the src/obs tracer, write DIR/<case>.trace.json
//                      (Perfetto JSON) and add barrier-stall / trace columns
//                      to the phase table (columns show "-" when off)
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"

int main(int argc, char** argv)
{
    using namespace cake;

    const int host_cores = host_machine().cores;
    const int p = std::max(
        static_cast<int>(env_long("CAKE_BENCH_P").value_or(host_cores)), 1);
    const int reps = std::max(
        static_cast<int>(env_long("CAKE_BENCH_REPS").value_or(3)), 1);
    ThreadPool pool(p);
    Rng rng(1);
    bench::TraceCapture capture = bench::TraceCapture::from_args(argc, argv);
    // Tuned plans by default (what a production call would measure);
    // --no-tune reverts to analytic planning. Recorded in the BENCH JSON.
    const bench::PlanSourceOption plans =
        bench::PlanSourceOption::from_args(argc, argv);

    struct Case {
        const char* label;
        const char* key;  ///< trace-file slug
        GemmShape shape;
    };
    const std::vector<Case> cases = {
        {"skewed K  (2048 x 2048 x 64)", "skewed_k", {2048, 2048, 64}},
        {"skewed M  (64 x 2048 x 2048)", "skewed_m", {64, 2048, 2048}},
        {"skewed N  (2048 x 64 x 2048)", "skewed_n", {2048, 64, 2048}},
        {"panel     (4096 x 256 x 256)", "panel", {4096, 256, 256}},
        {"square    (1024^3)", "square", {1024, 1024, 1024}},
    };

    std::cout << "=== Pipelined CB-block executor: exposed vs hidden "
                 "packing IO (Fig. 7, measured) ===\n"
              << "p = " << p << ", best of " << reps
              << " repetitions per configuration.\n\n";
    bench::print_machine_banner();

    Table phases({"case", "executor", "total (ms)", "pack (ms)",
                  "compute (ms)", "stall (ms)",
                  "overlap eff", "GFLOP/s", "barrier/p (ms)",
                  "worst barrier (ms)", "trace"});
    Table summary({"case", "serial (ms)", "pipelined (ms)", "speedup",
                   "serial pack share", "overlap eff"});

    int overlap_wins = 0;
    int pack_heavy = 0;
    for (const Case& c : cases) {
        Matrix a(c.shape.m, c.shape.k);
        Matrix b(c.shape.k, c.shape.n);
        a.fill_random(rng);
        b.fill_random(rng);
        Matrix out(c.shape.m, c.shape.n);

        // Timed reps run untraced; when --trace-dir is set, one extra run
        // per configuration is bracketed by the tracer so the measured
        // numbers stay free of recording overhead.
        auto measure = [&](CakeExec exec, const char* exec_key,
                           bench::TraceResult* trace) {
            CakeOptions opts;
            opts.p = p;
            opts.exec = exec;
            opts.plan_source = plans.get();
            CakeGemm gemm(pool, opts);
            CakeStats best;
            const TimingPolicy policy{1, reps};  // one warm-up, min kept
            int run = 0;
            bool have_best = false;
            (void)min_seconds_reported(policy, [&] {
                gemm.multiply(a.data(), c.shape.k, b.data(), c.shape.n,
                              out.data(), c.shape.n, c.shape.m, c.shape.n,
                              c.shape.k);
                const CakeStats& s = gemm.stats();
                // Keep the winning rep's FULL phase breakdown, not just
                // its wall time (warm-up runs excluded, like the min).
                if (++run > policy.warmup
                    && (!have_best || s.total_seconds < best.total_seconds)) {
                    best = s;
                    have_best = true;
                }
                return s.total_seconds;
            });
            if (capture.on()) {
                capture.begin();
                gemm.multiply(a.data(), c.shape.k, b.data(), c.shape.n,
                              out.data(), c.shape.n, c.shape.m, c.shape.n,
                              c.shape.k);
                *trace = capture.end(std::string("pipeline_") + c.key + "_"
                                     + exec_key);
            }
            return best;
        };
        bench::TraceResult serial_trace, piped_trace;
        const CakeStats serial =
            measure(CakeExec::kSerial, "serial", &serial_trace);
        const CakeStats piped =
            measure(CakeExec::kPipelined, "pipelined", &piped_trace);

        auto phase_row = [&](const char* exec, const CakeStats& s,
                             const bench::TraceResult& trace) {
            phases.add_row(
                {c.label, exec, format_number(s.total_seconds * 1e3, 4),
                 format_number(s.pack_seconds * 1e3, 4),
                 format_number(s.compute_seconds * 1e3, 4),
                 format_number(s.stall_seconds * 1e3, 4),
                 format_number(s.overlap_efficiency, 3),
                 format_number(s.gflops(c.shape), 4),
                 trace.captured
                     ? format_number(trace.barrier_s / p * 1e3, 4)
                     : "-",
                 trace.captured
                     ? format_number(trace.barrier_worst_s * 1e3, 4)
                     : "-",
                 trace.captured ? trace.path : "-"});
        };
        phase_row("overlap off", serial, serial_trace);
        phase_row("overlap on", piped, piped_trace);

        const double speedup = serial.total_seconds / piped.total_seconds;
        const double pack_share =
            serial.pack_seconds / serial.total_seconds;
        summary.add_row({c.label, format_number(serial.total_seconds * 1e3, 4),
                         format_number(piped.total_seconds * 1e3, 4),
                         format_number(speedup, 3),
                         format_number(pack_share, 3),
                         format_number(piped.overlap_efficiency, 3)});
        if (pack_share >= 0.10) {
            ++pack_heavy;
            if (speedup > 1.0 && piped.overlap_efficiency > 0.0)
                ++overlap_wins;
        }
    }

    bench::print_table(phases, "pipeline_phases");
    std::cout << "\n";
    bench::print_table(summary, "pipeline_summary");
    if (pack_heavy > 0) {
        std::cout << "\nShape check: " << overlap_wins << "/" << pack_heavy
                  << " pack-heavy shapes (serial pack share >= 10%) run "
                     "faster with overlap on\nand report overlap_efficiency "
                     "> 0 — the pipeline moves packing IO off the\ncritical "
                     "path, which is the host-measured analogue of Fig. 7's "
                     "stall gap.\n";
    } else {
        std::cout << "\nNo shape is pack-heavy here (serial pack share < "
                     "10% on every case), so this run\nmakes no overlap "
                     "claim.\n";
    }
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw != 0 && static_cast<unsigned>(p) > hw) {
        std::cout << "\nNote: this host exposes only " << hw
                  << " hardware thread(s) for p = " << p
                  << " workers, so the overlapped\npacking still serialises "
                     "with compute and wall-clock speedups hover around "
                     "1.0\n(noise-dominated); overlap_efficiency reports "
                     "the co-issued packing share that\nbecomes a "
                     "wall-clock win once spare hardware threads exist.\n";
    }
    return 0;
}
