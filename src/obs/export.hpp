// Exporters and terminal self-profile for the obs tracer/metrics.
//
// Three output forms:
//   * Chrome/Perfetto trace-event JSON (object form, "X" complete events
//     with ts/dur in microseconds, "M" metadata naming each worker lane) —
//     loadable in ui.perfetto.dev or chrome://tracing.
//   * Flat metrics JSON and a common/csv Table for terminal / CSV reuse.
//   * ProfileReport: per-worker phase totals, top spans, barrier-stall
//     attribution and an ASCII overlap timeline for tools/cake_trace.
//
// The whole header is gated on CAKE_OBS_ENABLED: in compiled-out builds
// (-DCAKE_TRACE_DISABLED=ON) export.cpp is an empty TU and callers must be
// gated too (tools/cake_trace and the obs tests are).
#pragma once

#include "obs/trace.hpp"

#if CAKE_OBS_ENABLED

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "obs/metrics.hpp"

namespace cake {
namespace obs {

// --- Perfetto / chrome://tracing --------------------------------------

/// Write `{"traceEvents":[...]}` JSON. Lanes (tid) are worker ids; events
/// recorded outside a team job get lanes 1000+thread_index. Timestamps are
/// microseconds, rebased so the earliest event starts at ~0.
void write_perfetto_json(const TraceDump& dump, std::ostream& os);

/// write_perfetto_json to `path`; false if the file cannot be written.
bool write_perfetto_json_file(const TraceDump& dump, const std::string& path);

/// Structural validation of a Perfetto trace produced by the writer above:
/// parses the JSON with the shared reader (common/json.hpp) and checks the
/// trace-event contract ("traceEvents" array; every element has string
/// "ph"; "X" events carry numeric ts/dur and pid/tid/name). Never throws:
/// on failure returns false and, when `error` is non-null, a one-line
/// reason.
bool validate_perfetto_json(const std::string& text,
                            std::string* error = nullptr);

// --- metrics ----------------------------------------------------------

/// Flat JSON: {"metrics":[{name,kind,count,value,bounds,buckets,p50,p99}]}.
void write_metrics_json(const std::vector<MetricSnapshot>& snapshots,
                        std::ostream& os);

/// Table: name | kind | count | value | p50 | p90 | p99 (quantiles blank
/// for non-histograms). Renders via Table::print / write_csv.
Table metrics_table(const std::vector<MetricSnapshot>& snapshots);

// --- self-profile -----------------------------------------------------

/// Per-worker busy-time decomposition, seconds.
struct WorkerProfile {
    std::int32_t worker = -1;  ///< team tid; -1 = outside any team job
    double pack_s = 0;
    double compute_s = 0;
    double flush_s = 0;
    double barrier_s = 0;  ///< stall: SpinBarrier waits
    double other_s = 0;
    std::uint64_t events = 0;

    [[nodiscard]] double busy_s() const
    {
        return pack_s + compute_s + flush_s + other_s;
    }
};

/// Aggregate statistics for one span name.
struct SpanStat {
    std::string name;
    Phase phase = Phase::kNone;
    std::uint64_t count = 0;
    double total_s = 0;
    double mean_ns = 0;
    double max_ns = 0;
};

struct ProfileReport {
    std::vector<WorkerProfile> workers;  ///< ascending worker id
    std::vector<SpanStat> spans;         ///< descending total_s
    std::uint64_t total_events = 0;
    std::uint64_t total_dropped = 0;
    double t_begin_s = 0;  ///< earliest span start on the trace clock
    double t_end_s = 0;    ///< latest span end

    [[nodiscard]] double wall_s() const { return t_end_s - t_begin_s; }

    /// Sum of a phase across workers, seconds.
    [[nodiscard]] double phase_total_s(Phase phase) const;
};

/// Aggregate a dump into per-worker / per-span statistics.
ProfileReport profile(const TraceDump& dump);

/// worker | pack_s | compute_s | flush_s | barrier_s | other_s | events
Table worker_table(const ProfileReport& report);

/// span | phase | count | total_s | mean_ns | max_ns (top `top_n`).
Table span_table(const ProfileReport& report, std::size_t top_n = 12);

/// Barrier-wait stall attribution: worker | barrier_s | share of that
/// worker's traced time | share of all barrier time.
Table stall_table(const ProfileReport& report);

/// ASCII overlap timeline, one row per worker lane, `columns` time slices
/// wide. Each cell shows the dominant phase in its slice: P=pack,
/// C=compute, F=flush, b=barrier-wait, o=other, '.'=idle.
std::string overlap_timeline(const TraceDump& dump, int columns = 72);

}  // namespace obs
}  // namespace cake

#endif  // CAKE_OBS_ENABLED
