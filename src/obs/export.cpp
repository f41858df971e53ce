#include "obs/export.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "common/json.hpp"

namespace cake {
namespace obs {

namespace {

/// Trace-lane id for an event: real worker ids as-is, everything recorded
/// outside a team job on a high lane keyed by the ring's thread index.
std::int64_t lane_of(const TraceEvent& ev, std::uint64_t thread_index)
{
    if (ev.worker >= 0) return ev.worker;
    return 1000 + static_cast<std::int64_t>(thread_index);
}

std::string us_string(std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return buf;
}

std::uint64_t earliest_start(const TraceDump& dump)
{
    std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
    for (const ThreadTrace& t : dump.threads) {
        for (const TraceEvent& ev : t.events) t0 = std::min(t0, ev.start_ns);
    }
    return t0 == std::numeric_limits<std::uint64_t>::max() ? 0 : t0;
}

}  // namespace

void write_perfetto_json(const TraceDump& dump, std::ostream& os)
{
    const std::uint64_t t0 = earliest_start(dump);
    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first) os << ",\n";
        first = false;
    };

    sep();
    os << R"({"ph":"M","pid":1,"tid":0,"name":"process_name",)"
       << R"("args":{"name":"cake"}})";

    // One thread_name metadata record per lane that carries events.
    std::map<std::int64_t, std::string> lanes;
    for (const ThreadTrace& t : dump.threads) {
        for (const TraceEvent& ev : t.events) {
            const std::int64_t lane = lane_of(ev, t.thread_index);
            if (lanes.count(lane) != 0) continue;
            lanes[lane] = ev.worker >= 0
                              ? "worker " + std::to_string(ev.worker)
                              : "thread " + std::to_string(t.thread_index);
        }
    }
    for (const auto& [lane, name] : lanes) {
        sep();
        os << R"({"ph":"M","pid":1,"tid":)" << lane
           << R"(,"name":"thread_name","args":{"name":")" << name << "\"}}";
    }

    for (const ThreadTrace& t : dump.threads) {
        for (const TraceEvent& ev : t.events) {
            sep();
            const std::int64_t lane = lane_of(ev, t.thread_index);
            const std::uint64_t rel = ev.start_ns - t0;
            if (ev.dur_ns == 0) {
                os << R"({"ph":"i","s":"t","pid":1,"tid":)" << lane
                   << ",\"ts\":" << us_string(rel);
            } else {
                os << R"({"ph":"X","pid":1,"tid":)" << lane
                   << ",\"ts\":" << us_string(rel)
                   << ",\"dur\":" << us_string(ev.dur_ns);
            }
            os << ",\"name\":\"" << json::escape(ev.name) << "\",\"cat\":\""
               << phase_name(ev.phase) << "\",\"args\":{\"mb\":" << ev.mb
               << ",\"nb\":" << ev.nb << ",\"kb\":" << ev.kb
               << ",\"tile\":" << ev.tile << ",\"worker\":" << ev.worker
               << "}}";
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

bool write_perfetto_json_file(const TraceDump& dump, const std::string& path)
{
    std::ofstream f(path);
    if (!f.good()) return false;
    write_perfetto_json(dump, f);
    return f.good();
}

bool validate_perfetto_json(const std::string& text, std::string* error)
{
    auto fail = [&](const std::string& why) {
        if (error != nullptr) *error = why;
        return false;
    };
    using Kind = json::Value::Kind;
    json::Value root;
    std::string parse_error;
    if (!json::parse(text, root, &parse_error)) return fail(parse_error);
    if (root.kind != Kind::kObject) return fail("top level is not an object");
    const json::Value* events = root.find("traceEvents", Kind::kArray);
    if (events == nullptr) return fail("missing traceEvents array");
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const json::Value& ev = events->array[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (ev.kind != Kind::kObject) return fail(at + " is not an object");
        const json::Value* ph = ev.find("ph", Kind::kString);
        if (ph == nullptr) return fail(at + " has no string ph");
        if (ev.find("name", Kind::kString) == nullptr) {
            return fail(at + " has no string name");
        }
        if (ev.find("pid") == nullptr || ev.find("tid") == nullptr) {
            return fail(at + " lacks pid/tid");
        }
        if (ph->string == "X") {
            const json::Value* dur = ev.find("dur", Kind::kNumber);
            if (ev.find("ts", Kind::kNumber) == nullptr || dur == nullptr) {
                return fail(at + " X event lacks numeric ts/dur");
            }
            if (dur->number < 0) return fail(at + " negative dur");
        }
    }
    return true;
}

// --- metrics ----------------------------------------------------------

namespace {

const char* kind_name(MetricKind kind)
{
    switch (kind) {
        case MetricKind::kCounter: return "counter";
        case MetricKind::kGauge: return "gauge";
        case MetricKind::kHistogram: return "histogram";
    }
    return "unknown";
}

}  // namespace

void write_metrics_json(const std::vector<MetricSnapshot>& snapshots,
                        std::ostream& os)
{
    os << "{\"metrics\":[\n";
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        const MetricSnapshot& s = snapshots[i];
        os << "{\"name\":\"" << json::escape(s.name)
           << "\",\"kind\":\"" << kind_name(s.kind)
           << "\",\"count\":" << s.count << ",\"value\":"
           << format_number(s.value, 12);
        if (s.kind == MetricKind::kHistogram) {
            os << ",\"bounds\":[";
            for (std::size_t b = 0; b < s.bounds.size(); ++b) {
                os << (b != 0 ? "," : "") << format_number(s.bounds[b], 12);
            }
            os << "],\"buckets\":[";
            for (std::size_t b = 0; b < s.buckets.size(); ++b) {
                os << (b != 0 ? "," : "") << s.buckets[b];
            }
            os << "],\"p50\":" << format_number(s.quantile(0.50), 9)
               << ",\"p99\":" << format_number(s.quantile(0.99), 9);
        }
        os << "}" << (i + 1 < snapshots.size() ? "," : "") << "\n";
    }
    os << "]}\n";
}

Table metrics_table(const std::vector<MetricSnapshot>& snapshots)
{
    Table table({"metric", "kind", "count", "value", "p50", "p90", "p99"});
    for (const MetricSnapshot& s : snapshots) {
        const bool hist = s.kind == MetricKind::kHistogram;
        table.add_row({s.name, kind_name(s.kind), std::to_string(s.count),
                       format_number(s.value, 6),
                       hist ? format_number(s.quantile(0.50), 6) : "-",
                       hist ? format_number(s.quantile(0.90), 6) : "-",
                       hist ? format_number(s.quantile(0.99), 6) : "-"});
    }
    return table;
}

// --- self-profile -----------------------------------------------------

double ProfileReport::phase_total_s(Phase phase) const
{
    double total = 0;
    for (const WorkerProfile& w : workers) {
        switch (phase) {
            case Phase::kPack: total += w.pack_s; break;
            case Phase::kCompute: total += w.compute_s; break;
            case Phase::kBarrier: total += w.barrier_s; break;
            case Phase::kOther: total += w.other_s; break;
            case Phase::kNone: break;
        }
    }
    return total;
}

ProfileReport profile(const TraceDump& dump)
{
    ProfileReport report;
    report.total_dropped = dump.total_dropped();

    std::map<std::int32_t, WorkerProfile> workers;
    std::map<std::string, SpanStat> spans;
    std::uint64_t t_begin = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t t_end = 0;

    for (const ThreadTrace& t : dump.threads) {
        for (const TraceEvent& ev : t.events) {
            ++report.total_events;
            t_begin = std::min(t_begin, ev.start_ns);
            t_end = std::max(t_end, ev.start_ns + ev.dur_ns);
            const double dur_s = static_cast<double>(ev.dur_ns) * 1e-9;

            WorkerProfile& w = workers[ev.worker];
            w.worker = ev.worker;
            ++w.events;
            switch (ev.phase) {
                case Phase::kPack: w.pack_s += dur_s; break;
                case Phase::kCompute: w.compute_s += dur_s; break;
                case Phase::kBarrier: w.barrier_s += dur_s; break;
                default: w.other_s += dur_s; break;
            }

            SpanStat& stat = spans[ev.name];
            stat.name = ev.name;
            stat.phase = ev.phase;
            ++stat.count;
            stat.total_s += dur_s;
            stat.max_ns =
                std::max(stat.max_ns, static_cast<double>(ev.dur_ns));
        }
    }

    if (report.total_events > 0) {
        report.t_begin_s = static_cast<double>(t_begin) * 1e-9;
        report.t_end_s = static_cast<double>(t_end) * 1e-9;
    }
    for (auto& [worker, w] : workers) report.workers.push_back(w);
    for (auto& [name, stat] : spans) {
        stat.mean_ns = stat.count > 0
                           ? stat.total_s * 1e9 /
                                 static_cast<double>(stat.count)
                           : 0;
        report.spans.push_back(stat);
    }
    std::sort(report.spans.begin(), report.spans.end(),
              [](const SpanStat& a, const SpanStat& b) {
                  return a.total_s > b.total_s;
              });
    return report;
}

Table worker_table(const ProfileReport& report)
{
    Table table({"worker", "pack_s", "compute_s", "barrier_s", "other_s",
                 "events"});
    for (const WorkerProfile& w : report.workers) {
        table.add_row({w.worker >= 0 ? std::to_string(w.worker) : "-",
                       format_number(w.pack_s, 6),
                       format_number(w.compute_s, 6),
                       format_number(w.barrier_s, 6),
                       format_number(w.other_s, 6),
                       std::to_string(w.events)});
    }
    return table;
}

Table span_table(const ProfileReport& report, std::size_t top_n)
{
    Table table({"span", "phase", "count", "total_s", "mean_ns", "max_ns"});
    const std::size_t n = std::min(top_n, report.spans.size());
    for (std::size_t i = 0; i < n; ++i) {
        const SpanStat& s = report.spans[i];
        table.add_row({s.name, phase_name(s.phase), std::to_string(s.count),
                       format_number(s.total_s, 6),
                       format_number(s.mean_ns, 6),
                       format_number(s.max_ns, 6)});
    }
    return table;
}

Table stall_table(const ProfileReport& report)
{
    double all_barrier = 0;
    for (const WorkerProfile& w : report.workers) all_barrier += w.barrier_s;
    Table table({"worker", "barrier_wait_s", "pct_of_worker", "pct_of_stall"});
    for (const WorkerProfile& w : report.workers) {
        const double traced = w.busy_s() + w.barrier_s;
        table.add_row(
            {w.worker >= 0 ? std::to_string(w.worker) : "-",
             format_number(w.barrier_s, 6),
             traced > 0 ? format_number(100.0 * w.barrier_s / traced, 4)
                        : "-",
             all_barrier > 0
                 ? format_number(100.0 * w.barrier_s / all_barrier, 4)
                 : "-"});
    }
    return table;
}

std::string overlap_timeline(const TraceDump& dump, int columns)
{
    if (columns < 8) columns = 8;
    std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t t1 = 0;
    std::map<std::int64_t, std::vector<const TraceEvent*>> lanes;
    for (const ThreadTrace& t : dump.threads) {
        for (const TraceEvent& ev : t.events) {
            if (ev.dur_ns == 0) continue;
            t0 = std::min(t0, ev.start_ns);
            t1 = std::max(t1, ev.start_ns + ev.dur_ns);
            lanes[lane_of(ev, t.thread_index)].push_back(&ev);
        }
    }
    if (lanes.empty() || t1 <= t0) return "(no spans)\n";

    const double slice_ns =
        static_cast<double>(t1 - t0) / static_cast<double>(columns);
    std::ostringstream os;
    os << "timeline (" << format_number(static_cast<double>(t1 - t0) * 1e-6,
                                        4)
       << " ms, " << columns
       << " slices; P=pack C=compute b=barrier o=other .=idle)\n";
    constexpr int kPhases = static_cast<int>(Phase::kOther) + 1;
    for (const auto& [lane, events] : lanes) {
        // Dominant phase per slice by accumulated overlap time.
        std::vector<std::array<double, kPhases>> weight(
            static_cast<std::size_t>(columns));
        for (const TraceEvent* ev : events) {
            const double begin = static_cast<double>(ev->start_ns - t0);
            const double end =
                static_cast<double>(ev->start_ns + ev->dur_ns - t0);
            int first = static_cast<int>(begin / slice_ns);
            int last = static_cast<int>(end / slice_ns);
            first = std::max(0, std::min(columns - 1, first));
            last = std::max(0, std::min(columns - 1, last));
            for (int s = first; s <= last; ++s) {
                const double lo = std::max(begin, s * slice_ns);
                const double hi = std::min(end, (s + 1) * slice_ns);
                if (hi > lo) {
                    weight[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(ev->phase)] += hi - lo;
                }
            }
        }
        std::string row;
        for (int s = 0; s < columns; ++s) {
            const auto& w = weight[static_cast<std::size_t>(s)];
            double best = 0;
            int best_phase = -1;
            for (int ph = 0; ph < kPhases; ++ph) {
                if (w[static_cast<std::size_t>(ph)] > best) {
                    best = w[static_cast<std::size_t>(ph)];
                    best_phase = ph;
                }
            }
            switch (best_phase) {
                case static_cast<int>(Phase::kPack): row += 'P'; break;
                case static_cast<int>(Phase::kCompute): row += 'C'; break;
                case static_cast<int>(Phase::kBarrier): row += 'b'; break;
                case static_cast<int>(Phase::kOther):
                case static_cast<int>(Phase::kNone): row += 'o'; break;
                default: row += '.'; break;
            }
        }
        if (lane < 1000) {
            os << "w" << (lane < 10 ? "0" : "") << lane;
        } else {
            os << "t" << (lane - 1000 < 10 ? "0" : "") << (lane - 1000);
        }
        os << " |" << row << "|\n";
    }
    return os.str();
}

}  // namespace obs
}  // namespace cake
