// Structured bench telemetry: the BENCH_<name>.json schema every bench
// emits, its writer and schema reader (both over the shared JSON module,
// common/json.hpp), and the baseline-gate comparator tools/bench_gate and
// tests/perf_test.cpp run over it.
//
// GEMMbench (arXiv:1511.03742) argues GEMM numbers are unreproducible
// without machine-annotated, machine-readable records; this header is that
// record for the CAKE benches. One file per printed table:
//
//   {
//     "schema": 1,
//     "bench": "<table name>",
//     "machine_key": "<MachineFingerprint::key()>",
//     "machine": { ...host_fingerprint().json()... },
//     "context": { "tuned_plans": "on", "counters": "denied", ... },
//     "cases": [
//       { "name": "<first column>",
//         "metrics": { "<numeric column>": value, ... },
//         "labels":  { "<non-numeric column>": "cell", ... } },
//       ...
//     ]
//   }
//
// Cases come straight from common/csv Table rows: the first column is the
// case name, numeric cells become metrics (keyed by the sanitised column
// header), everything else (including "-" degraded-mode cells) becomes a
// label. Doubles are written with %.17g so a parse round-trips bit-exact.
//
// The gate: gate_compare() walks every metric of every baseline case and
// flags relative drift beyond a per-metric tolerance. Direction matters —
// throughput metrics (gflops, gbps, speedup) only regress downward,
// cost metrics (seconds, bytes, stalls, divergence) only upward, anything
// unrecognised is gated two-sided. Exit-code contract for tools built on
// this: 0 = pass, 1 = regression/malformed run, 2 = missing baseline.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/json.hpp"

namespace cake {
namespace bench {

inline constexpr int kBenchSchemaVersion = 1;

/// One table row: name + numeric metrics + non-numeric labels.
struct BenchCase {
    std::string name;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> labels;
};

/// One BENCH_<name>.json document.
struct BenchRecord {
    int schema = kBenchSchemaVersion;
    std::string bench;
    std::string machine_key;
    std::string machine_json;  ///< raw fingerprint object, written verbatim
    std::map<std::string, std::string> context;
    std::vector<BenchCase> cases;
};

/// Sanitise a column header into a metric key: lowercase, [a-z0-9_] only.
inline std::string metric_key(const std::string& header)
{
    std::string key;
    key.reserve(header.size());
    for (const char c : header) {
        const auto u = static_cast<unsigned char>(c);
        if (std::isalnum(u) != 0) {
            key += static_cast<char>(std::tolower(u));
        } else {
            key += '_';
        }
    }
    return key;
}

/// Parse a table cell as a finite double; nullopt for labels ("-", text,
/// inf/nan).
inline std::optional<double> cell_number(const std::string& cell)
{
    if (cell.empty()) return std::nullopt;
    const char* begin = cell.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (end == begin || errno == ERANGE) return std::nullopt;
    while (*end != '\0' &&
           std::isspace(static_cast<unsigned char>(*end)) != 0) {
        ++end;
    }
    if (*end != '\0') return std::nullopt;
    if (!std::isfinite(v)) return std::nullopt;
    return v;
}

/// Convert a printed Table into the record's cases: first column names the
/// case, numeric cells become metrics, the rest labels.
inline BenchRecord record_from_table(const Table& table,
                                     const std::string& bench_name)
{
    BenchRecord record;
    record.bench = bench_name;
    const std::vector<std::string>& header = table.header();
    for (const std::vector<std::string>& row : table.rows()) {
        BenchCase c;
        if (!row.empty()) c.name = row[0];
        for (std::size_t i = 1; i < row.size() && i < header.size(); ++i) {
            const std::string key = metric_key(header[i]);
            if (const auto v = cell_number(row[i])) {
                c.metrics[key] = *v;
            } else {
                c.labels[key] = row[i];
            }
        }
        record.cases.push_back(std::move(c));
    }
    return record;
}

// --- writer -------------------------------------------------------------

inline void write_bench_json(const BenchRecord& record, std::ostream& os)
{
    os << "{\n  \"schema\": " << record.schema
       << ",\n  \"bench\": " << json::quote(record.bench)
       << ",\n  \"machine_key\": " << json::quote(record.machine_key)
       << ",\n  \"machine\": "
       << (record.machine_json.empty() ? "{}" : record.machine_json)
       << ",\n  \"context\": {";
    bool first = true;
    for (const auto& [key, value] : record.context) {
        os << (first ? "" : ", ") << json::quote(key) << ": "
           << json::quote(value);
        first = false;
    }
    os << "},\n  \"cases\": [\n";
    for (std::size_t i = 0; i < record.cases.size(); ++i) {
        const BenchCase& c = record.cases[i];
        os << "    {\"name\": " << json::quote(c.name) << ", \"metrics\": {";
        first = true;
        for (const auto& [key, value] : c.metrics) {
            os << (first ? "" : ", ") << json::quote(key) << ": "
               << json::number(value);
            first = false;
        }
        os << "}, \"labels\": {";
        first = true;
        for (const auto& [key, value] : c.labels) {
            os << (first ? "" : ", ") << json::quote(key) << ": "
               << json::quote(value);
            first = false;
        }
        os << "}}" << (i + 1 < record.cases.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

inline bool write_bench_json_file(const BenchRecord& record,
                                  const std::string& path)
{
    std::ofstream f(path);
    if (!f.good()) return false;
    write_bench_json(record, f);
    return f.good();
}

// --- parser -------------------------------------------------------------

/// Parse a BENCH_<name>.json document with the shared reader
/// (common/json.hpp). False (with a one-line reason in `error` when
/// non-null) on malformed JSON or a schema mismatch.
inline bool parse_bench_json(const std::string& text, BenchRecord* out,
                             std::string* error = nullptr)
{
    using json::Value;
    using Kind = Value::Kind;
    auto fail = [&](const std::string& why) {
        if (error != nullptr) *error = why;
        return false;
    };
    Value root;
    std::string parse_error;
    if (!json::parse(text, root, &parse_error)) return fail(parse_error);
    if (root.kind != Kind::kObject) return fail("top level is not an object");
    BenchRecord record;
    const Value* schema = root.find("schema", Kind::kNumber);
    if (schema == nullptr) return fail("missing numeric schema");
    record.schema = static_cast<int>(schema->number);
    if (record.schema != kBenchSchemaVersion) {
        return fail("unsupported schema version "
                    + std::to_string(record.schema));
    }
    const Value* name = root.find("bench", Kind::kString);
    if (name == nullptr) return fail("missing string bench");
    record.bench = name->string;
    if (const Value* key = root.find("machine_key", Kind::kString)) {
        record.machine_key = key->string;
    }
    if (const Value* machine = root.find("machine", Kind::kObject)) {
        std::ostringstream os;
        json::write(*machine, os);
        record.machine_json = os.str();
    }
    if (const Value* context = root.find("context", Kind::kObject)) {
        for (const auto& [key, value] : context->object) {
            if (value.kind != Kind::kString) {
                return fail("context value for '" + key
                            + "' is not a string");
            }
            record.context[key] = value.string;
        }
    }
    const Value* cases = root.find("cases", Kind::kArray);
    if (cases == nullptr) return fail("missing cases array");
    for (std::size_t i = 0; i < cases->array.size(); ++i) {
        const Value& cv = cases->array[i];
        const std::string at = "cases[" + std::to_string(i) + "]";
        if (cv.kind != Kind::kObject) return fail(at + " is not an object");
        BenchCase c;
        const Value* cname = cv.find("name", Kind::kString);
        if (cname == nullptr) return fail(at + " has no string name");
        c.name = cname->string;
        if (const Value* metrics = cv.find("metrics", Kind::kObject)) {
            for (const auto& [key, value] : metrics->object) {
                if (value.kind != Kind::kNumber) {
                    return fail(at + " metric '" + key + "' is not numeric");
                }
                c.metrics[key] = value.number;
            }
        }
        if (const Value* labels = cv.find("labels", Kind::kObject)) {
            for (const auto& [key, value] : labels->object) {
                if (value.kind != Kind::kString) {
                    return fail(at + " label '" + key + "' is not a string");
                }
                c.labels[key] = value.string;
            }
        }
        record.cases.push_back(std::move(c));
    }
    if (out != nullptr) *out = std::move(record);
    return true;
}

/// parse_bench_json over a file. Distinguishes "missing/unreadable file"
/// (kMissing — bench_gate's exit 2) from "present but malformed" (kBad).
enum class BenchLoad { kOk, kMissing, kBad };

inline BenchLoad load_bench_json(const std::string& path, BenchRecord* out,
                                 std::string* error = nullptr)
{
    std::ifstream f(path);
    if (!f.good()) {
        if (error != nullptr) *error = "cannot open " + path;
        return BenchLoad::kMissing;
    }
    std::ostringstream buffer;
    buffer << f.rdbuf();
    return parse_bench_json(buffer.str(), out, error) ? BenchLoad::kOk
                                                      : BenchLoad::kBad;
}

// --- baseline gate ------------------------------------------------------

/// Which way a metric is allowed to drift without regressing: +1 = higher
/// is better (only a drop fails), -1 = lower is better (only a rise
/// fails), 0 = two-sided.
inline int metric_direction(const std::string& key)
{
    const auto has = [&](const char* needle) {
        return key.find(needle) != std::string::npos;
    };
    // Throughput first: sanitised "GFLOP/s" is "gflop_s", which would
    // otherwise fall through to the seconds-suffix rule below.
    if (has("flop") || has("gbps") || has("gb_s") || has("speedup") ||
        has("overlap") || has("efficiency") || has("ipc")) {
        return 1;
    }
    if (has("seconds") || has("bytes") || has("stall") || has("misses") ||
        has("divergence") || has("miss_mb") || has("dram_gb")) {
        return -1;
    }
    const auto ends_with = [&](const char* suffix) {
        const std::string s(suffix);
        return key.size() >= s.size() &&
               key.compare(key.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with("_s") || ends_with("_ns") || ends_with("_ms")) return -1;
    return 0;
}

/// Tolerances for one gate run.
struct GateSpec {
    double default_tol = 0.10;           ///< relative, per metric
    std::map<std::string, double> tol;   ///< per-metric override
    std::map<std::string, int> direction;  ///< per-metric override

    [[nodiscard]] double tol_of(const std::string& metric) const
    {
        const auto it = tol.find(metric);
        return it != tol.end() ? it->second : default_tol;
    }

    [[nodiscard]] int direction_of(const std::string& metric) const
    {
        const auto it = direction.find(metric);
        return it != direction.end() ? it->second
                                     : metric_direction(metric);
    }
};

/// One gate failure.
struct GateFinding {
    std::string case_name;
    std::string metric;   ///< empty for missing-case findings
    double baseline = 0;
    double run = 0;
    double rel = 0;       ///< signed relative drift (run - base) / |base|
    std::string what;     ///< "regressed" | "missing-case" | "missing-metric"
};

struct GateResult {
    bool ok = true;
    std::size_t compared = 0;  ///< metrics checked
    std::vector<GateFinding> findings;
};

/// Compare a run against a baseline: every baseline case and metric must
/// exist in the run and sit within tolerance. Extra cases/metrics in the
/// run never fail (new benches are allowed to grow columns).
inline GateResult gate_compare(const BenchRecord& baseline,
                               const BenchRecord& run, const GateSpec& spec)
{
    GateResult result;
    for (std::size_t i = 0; i < baseline.cases.size(); ++i) {
        const BenchCase& base_case = baseline.cases[i];
        const BenchCase* run_case = nullptr;
        if (i < run.cases.size() && run.cases[i].name == base_case.name) {
            run_case = &run.cases[i];
        } else {
            for (const BenchCase& c : run.cases) {
                if (c.name == base_case.name) {
                    run_case = &c;
                    break;
                }
            }
        }
        if (run_case == nullptr) {
            result.ok = false;
            result.findings.push_back(
                {base_case.name, "", 0, 0, 0, "missing-case"});
            continue;
        }
        for (const auto& [metric, base_value] : base_case.metrics) {
            const auto it = run_case->metrics.find(metric);
            if (it == run_case->metrics.end()) {
                result.ok = false;
                result.findings.push_back(
                    {base_case.name, metric, base_value, 0, 0,
                     "missing-metric"});
                continue;
            }
            ++result.compared;
            const double run_value = it->second;
            const double denom =
                std::abs(base_value) > 0 ? std::abs(base_value) : 1.0;
            const double rel = (run_value - base_value) / denom;
            const double tol = spec.tol_of(metric);
            const int dir = spec.direction_of(metric);
            const bool bad = dir > 0   ? rel < -tol
                             : dir < 0 ? rel > tol
                                       : std::abs(rel) > tol;
            if (bad) {
                result.ok = false;
                result.findings.push_back({base_case.name, metric,
                                           base_value, run_value, rel,
                                           "regressed"});
            }
        }
    }
    return result;
}

}  // namespace bench
}  // namespace cake
