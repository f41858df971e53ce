// Shared bench output helpers:
//   * print_table: print to stdout and, when the CAKE_BENCH_CSV_DIR
//     environment variable is set, persist as <dir>/<name>.csv plus a
//     <dir>/<name>.meta.json header identifying the machine the numbers
//     came from (brand, best ISA, caches, cores, measured bandwidth — the
//     src/machine fingerprint, same key the tuning cache uses).
//   * print_machine_banner: the same fingerprint on stdout, so every bench
//     transcript states its machine up front.
//   * TimingPolicy / min_seconds / min_seconds_reported (re-exported from
//     src/common/timing.hpp): the one warmup/repetition/min-of-N policy
//     shared by the benches and the src/tune autotuner.
//   * TraceCapture: opt-in `--trace-dir DIR` support — brackets an extra
//     run of a bench case with the src/obs tracer and writes
//     <dir>/<name>.trace.json plus a per-run stall summary. Off by
//     default; benches print "-" in the trace columns when disarmed.
//   * PlanSourceOption: opt-out `--no-tune` wiring of the persisted tuning
//     cache (tune::CachedPlanSource) into CakeOptions::plan_source.
#pragma once

#include <fstream>
#include <iostream>
#include <string>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/timing.hpp"
#include "core/plan_source.hpp"
#include "machine/fingerprint.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "tune/cache.hpp"

namespace cake {
namespace bench {

/// The .meta.json header of a CSV: which experiment, on which machine.
inline std::string bench_meta_json(const std::string& name)
{
    return "{\"bench\": \"" + name
           + "\",\n \"machine\": " + host_fingerprint().json() + "}\n";
}

/// Print the host fingerprint block so every bench transcript records the
/// machine (brand, ISA, caches, cores, measured bandwidth) it ran on.
inline void print_machine_banner()
{
    std::cout << "machine: " << host_fingerprint().json() << "\n\n";
}

inline void print_table(const Table& table, const std::string& name)
{
    table.print(std::cout);
    if (auto dir = env_string("CAKE_BENCH_CSV_DIR")) {
        const std::string path = *dir + "/" + name + ".csv";
        std::ofstream f(path);
        if (f.good()) {
            table.write_csv(f);
            std::cout << "[csv saved: " << path << "]\n";
        } else {
            std::cerr << "warning: cannot write " << path << "\n";
        }
        const std::string meta_path = *dir + "/" + name + ".meta.json";
        std::ofstream meta(meta_path);
        if (meta.good()) {
            meta << bench_meta_json(name);
        } else {
            std::cerr << "warning: cannot write " << meta_path << "\n";
        }
    }
}

/// Opt-out wiring of the persisted tuning cache into a bench's
/// CakeOptions. Default ON (the bench measures what a tuned production
/// call would get); `--no-tune` reverts to pure analytic planning.
class PlanSourceOption {
public:
    static PlanSourceOption from_args(int argc, char** argv)
    {
        PlanSourceOption option;
        bool no_tune = false;
        for (int i = 1; i < argc; ++i) {
            if (std::string(argv[i]) == "--no-tune") no_tune = true;
        }
        if (!no_tune) {
            option.source_ = tune::CachedPlanSource::for_host();
            option.on_ = true;
        }
        return option;
    }

    /// Value for CakeOptions::plan_source (nullptr when off — the driver
    /// then plans analytically, exactly as before this option existed).
    [[nodiscard]] const TunedPlanSource* get() const
    {
        return on_ ? &source_ : nullptr;
    }

    [[nodiscard]] bool on() const { return on_; }

private:
    tune::CachedPlanSource source_ = tune::CachedPlanSource({}, "");
    bool on_ = false;
};

/// Result of one named TraceCapture::end().
struct TraceResult {
    bool captured = false;         ///< trace file written
    std::string path;              ///< Perfetto JSON location
    double barrier_s = 0;          ///< barrier-wait total across workers
    double barrier_worst_s = 0;    ///< worst single worker's barrier wait
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
};

/// Opt-in bench tracing. Benches run their timed reps UNtraced, then — when
/// `--trace-dir DIR` was passed — bracket one extra run per case with
/// begin()/end() so the measured numbers stay free of tracing overhead.
class TraceCapture {
public:
    static TraceCapture from_args(int argc, char** argv)
    {
        TraceCapture capture;
        for (int i = 1; i + 1 < argc; ++i) {
            if (std::string(argv[i]) == "--trace-dir") {
                capture.dir_ = argv[i + 1];
            }
        }
        return capture;
    }

    [[nodiscard]] bool on() const { return !dir_.empty(); }

    /// Arm the tracer for the run that follows. No-op when off.
    void begin()
    {
        if (!on()) return;
        obs::reset();
        obs::metrics_reset();
        obs::enable();
        obs::ensure_thread_ring();
    }

    /// Disarm, write <dir>/<name>.trace.json, and summarise the stalls.
    TraceResult end(const std::string& name)
    {
        TraceResult result;
        if (!on()) return result;
        obs::disable();
        obs::metrics_disable();
        const obs::TraceDump dump = obs::collect();
        const obs::ProfileReport report = obs::profile(dump);
        result.events = report.total_events;
        result.dropped = report.total_dropped;
        for (const obs::WorkerProfile& w : report.workers) {
            result.barrier_s += w.barrier_s;
            if (w.barrier_s > result.barrier_worst_s) {
                result.barrier_worst_s = w.barrier_s;
            }
        }
        result.path = dir_ + "/" + name + ".trace.json";
        result.captured = obs::write_perfetto_json_file(dump, result.path);
        if (!result.captured) {
            std::cerr << "warning: cannot write " << result.path << "\n";
        }
        return result;
    }

private:
    std::string dir_;
};

}  // namespace bench
}  // namespace cake
