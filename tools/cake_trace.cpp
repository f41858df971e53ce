// cake_trace: run one GEMM under the src/obs tracer and explain where the
// time went, from a single command.
//
// Runs a chosen executor (serial / pipelined CB-block, or GOTO) on a
// Table-2 machine preset and shape, records every work-item span into the
// per-worker ring buffers, then:
//   * writes a Perfetto/chrome://tracing JSON trace (--out),
//   * prints a self-profile: per-worker phase seconds, top spans, a
//     barrier-wait stall table, and an ASCII overlap timeline,
//   * cross-checks the trace against CakeStats: per-worker
//     pack/compute span totals divided by p must agree with the
//     stats' phase seconds (the executors time the same windows).
//
// Usage:
//   cake_trace --preset intel-i9 --shape square --exec pipelined
//   cake_trace --preset amd --shape 2048x2048x64 --exec serial --f64
//   cake_trace --exec goto --out goto.json --metrics metrics.json
//   cake_trace --preset intel-i9 --shape square --exec pipelined --check
//
// Flags:
//   --preset  intel-i9|intel|amd|arm|host   (default intel-i9)
//   --shape   square|skewed|panel|MxNxK     (default square = 1024^3)
//   --exec    serial|pipelined|goto         (default pipelined)
//   --p N         worker count (default: host cores)
//   --f64         double precision
//   --capacity N  events per worker ring (default 65536)
//   --out FILE    Perfetto JSON path (default cake_trace.json)
//   --metrics FILE  also write the flat metrics JSON
//   --check       exit nonzero unless spans > 0, drops == 0 and the
//                 emitted JSON validates (the CI gate)
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/csv.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "machine/machine.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "threading/thread_pool.hpp"

namespace {

struct Options {
    std::string preset = "intel-i9";
    std::string shape_name = "square";
    cake::GemmShape shape{1024, 1024, 1024};
    std::string exec = "pipelined";
    int p = 0;  // 0 = host cores
    bool f64 = false;
    std::size_t capacity = 0;  // 0 = tracer default
    std::string out = "cake_trace.json";
    std::string metrics_out;
    bool check = false;
};

constexpr const char* kUsage =
    "usage: cake_trace [--preset intel-i9|intel|amd|arm|host]\n"
    "                  [--shape square|skewed|panel|MxNxK]\n"
    "                  [--exec serial|pipelined|goto] [--p N]\n"
    "                  [--f64] [--capacity N] [--out FILE]\n"
    "                  [--metrics FILE] [--check]\n";

Options parse_args(int argc, char** argv)
{
    const cake::cli::Args cli{argc, argv, "cake_trace", kUsage};
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--preset") {
            opt.preset = cli.next(i, "--preset");
        } else if (arg == "--shape") {
            opt.shape_name = cli.next(i, "--shape");
            opt.shape = cli.shape(opt.shape_name, cake::cli::kRunShapes);
        } else if (arg == "--exec") {
            opt.exec = cli.next(i, "--exec");
            if (opt.exec != "serial" && opt.exec != "pipelined"
                && opt.exec != "goto") {
                cli.error("--exec expects serial|pipelined|goto");
            }
        } else if (arg == "--p") {
            opt.p = cli.integer(cli.next(i, "--p"), "--p");
        } else if (arg == "--f64") {
            opt.f64 = true;
        } else if (arg == "--capacity") {
            opt.capacity = static_cast<std::size_t>(
                cli.index(cli.next(i, "--capacity"), "--capacity"));
        } else if (arg == "--out") {
            opt.out = cli.next(i, "--out");
        } else if (arg == "--metrics") {
            opt.metrics_out = cli.next(i, "--metrics");
        } else if (arg == "--check") {
            opt.check = true;
        } else if (arg == "--help" || arg == "-h") {
            cli.error("help requested");
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    return opt;
}

/// Phase seconds as CakeStats reports them vs as the trace recorded them.
struct PhaseAgreement {
    const char* phase;
    double stats_s;
    double trace_s;  ///< per-worker span total / p

    [[nodiscard]] double rel_err() const
    {
        const double denom = std::max(std::abs(stats_s), 1e-12);
        return std::abs(trace_s - stats_s) / denom;
    }
};

/// One templated driver so --f64 shares every code path.
template <typename T>
int run(const Options& opt)
{
    const cake::MachineSpec machine = cake::machine_by_name(opt.preset);
    const int p = opt.p > 0 ? opt.p : cake::host_machine().cores;
    cake::ThreadPool pool(p);
    cake::Rng rng(1);

    const cake::GemmShape& s = opt.shape;
    cake::MatrixT<T> a(s.m, s.k);
    cake::MatrixT<T> b(s.k, s.n);
    cake::MatrixT<T> out(s.m, s.n);
    a.fill_random(rng);
    b.fill_random(rng);

    const bool is_goto = opt.exec == "goto";
    cake::CakeOptions copts;
    copts.p = p;
    copts.machine = machine;
    copts.exec = opt.exec == "serial" ? cake::CakeExec::kSerial
                                      : cake::CakeExec::kPipelined;
    cake::GotoOptions gopts;
    gopts.p = p;
    gopts.machine = machine;

    cake::CakeGemmT<T> cake_gemm(pool, copts);
    cake::GotoGemmT<T> goto_gemm(pool, gopts);
    auto multiply = [&]() {
        if (is_goto) {
            goto_gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
        } else {
            cake_gemm.multiply(a.data(), s.k, b.data(), s.n, out.data(), s.n,
                               s.m, s.n, s.k);
        }
    };

    // Warm-up untraced: spins up the pool, faults in the matrices and
    // sizes the pack buffers, so the traced run profiles steady state.
    multiply();

    cake::obs::reset();
    cake::obs::metrics_reset();
    cake::obs::enable(opt.capacity);
    // Pre-register every worker's ring: a thread's first event otherwise
    // allocates the ring inside whatever span it lands in.
    cake::obs::ensure_thread_ring();
    pool.run(p, [](int) { cake::obs::ensure_thread_ring(); });
    multiply();
    cake::obs::disable();
    cake::obs::metrics_disable();

    const cake::obs::TraceDump dump = cake::obs::collect();
    const cake::obs::ProfileReport report = cake::obs::profile(dump);

    std::cout << "cake_trace: preset=" << opt.preset << " shape=" << s.m
              << "x" << s.n << "x" << s.k << " exec=" << opt.exec
              << " p=" << p << (opt.f64 ? " f64" : " f32") << "\n"
              << "events recorded: " << report.total_events
              << ", dropped: " << report.total_dropped
              << ", ring capacity: " << cake::obs::ring_capacity()
              << " events/thread\n\n";

    std::cout << "--- per-worker phase seconds ---\n";
    cake::obs::worker_table(report).print(std::cout);
    std::cout << "\n--- top spans ---\n";
    cake::obs::span_table(report).print(std::cout);
    std::cout << "\n--- barrier-wait stall attribution ---\n";
    cake::obs::stall_table(report).print(std::cout);
    std::cout << "\n--- overlap timeline ---\n"
              << cake::obs::overlap_timeline(dump) << "\n";

    const std::vector<cake::obs::MetricSnapshot> snapshots =
        cake::obs::metrics_snapshot();
    std::cout << "--- metrics ---\n";
    cake::obs::metrics_table(snapshots).print(std::cout);

    // Trace <-> stats cross-check. The pipelined executor's CakeStats
    // phase seconds are aggregate per-worker busy time / p, and the spans
    // wrap the same work-item windows, so the two must agree closely.
    // The serial executor's stats are wall-phase times (p workers run
    // concurrently inside each phase), so spans/p only match when worker
    // busy time is balanced; GOTO stats likewise. Printed for every
    // executor; enforced for the pipelined one.
    bool agree = true;
    if (!is_goto) {
        const cake::CakeStats& st = cake_gemm.stats();
        const int workers = std::max(p, 1);
        const PhaseAgreement rows[] = {
            {"pack", st.pack_seconds,
             report.phase_total_s(cake::obs::Phase::kPack) / workers},
            {"compute", st.compute_seconds,
             report.phase_total_s(cake::obs::Phase::kCompute) / workers},
        };
        cake::Table cmp({"phase", "stats_s", "trace_s/p", "rel_err"});
        for (const PhaseAgreement& row : rows) {
            cmp.add_row({row.phase, cake::format_number(row.stats_s, 6),
                         cake::format_number(row.trace_s, 6),
                         cake::format_number(row.rel_err(), 4)});
            if (opt.exec == "pipelined" && row.stats_s > 1e-4
                && row.rel_err() > 0.05) {
                agree = false;
            }
        }
        std::cout << "\n--- CakeStats agreement (spans/p vs stats) ---\n";
        cmp.print(std::cout);
        if (opt.exec == "pipelined") {
            std::cout << (agree ? "agreement: OK (<= 5% on phases > 0.1 ms)"
                                : "agreement: MISMATCH (> 5%)")
                      << "\n";
        }
    }

    // Export: build the JSON once, validate it, then write it out.
    std::ostringstream json;
    cake::obs::write_perfetto_json(dump, json);
    std::string validate_error;
    const bool json_ok =
        cake::obs::validate_perfetto_json(json.str(), &validate_error);
    {
        std::ofstream f(opt.out);
        if (!f.good()) {
            std::cerr << "cake_trace: cannot write " << opt.out << "\n";
            return 1;
        }
        f << json.str();
    }
    std::cout << "\ntrace written: " << opt.out << " ("
              << (json_ok ? "valid" : "INVALID: " + validate_error)
              << ", load in ui.perfetto.dev or chrome://tracing)\n";
    if (!opt.metrics_out.empty()) {
        std::ofstream f(opt.metrics_out);
        if (!f.good()) {
            std::cerr << "cake_trace: cannot write " << opt.metrics_out
                      << "\n";
            return 1;
        }
        cake::obs::write_metrics_json(snapshots, f);
        std::cout << "metrics written: " << opt.metrics_out << "\n";
    }

    if (opt.check) {
        bool ok = true;
        if (report.total_events == 0) {
            std::cerr << "check FAILED: no spans recorded\n";
            ok = false;
        }
        if (report.total_dropped != 0) {
            std::cerr << "check FAILED: " << report.total_dropped
                      << " events dropped (raise --capacity)\n";
            ok = false;
        }
        if (!json_ok) {
            std::cerr << "check FAILED: invalid trace JSON: "
                      << validate_error << "\n";
            ok = false;
        }
        std::cout << "check: " << (ok ? "PASS" : "FAIL") << "\n";
        return ok ? 0 : 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv)
{
    const Options opt = parse_args(argc, argv);
    try {
        return opt.f64 ? run<double>(opt) : run<float>(opt);
    } catch (const std::exception& e) {
        std::cerr << "cake_trace: " << e.what() << "\n";
        return 1;
    }
}
