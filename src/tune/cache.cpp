#include "tune/cache.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "core/fperror.hpp"
#include "core/schedule.hpp"
#include "kernel/cpu_features.hpp"
#include "machine/fingerprint.hpp"

namespace cake {
namespace tune {
namespace {

// ---------------------------------------------------------------------------
// Schema mapping over the shared JSON reader (common/json.hpp), which never
// throws; load_cache turns its failures into CACHE_PARSE issues.
// ---------------------------------------------------------------------------

using json::Value;

std::optional<index_t> as_index(const Value* v)
{
    if (v == nullptr || v->kind != Value::Kind::kNumber) return {};
    return static_cast<index_t>(v->number);
}

std::optional<double> as_double(const Value* v)
{
    if (v == nullptr || v->kind != Value::Kind::kNumber) return {};
    return v->number;
}

std::optional<std::string> as_string(const Value* v)
{
    if (v == nullptr || v->kind != Value::Kind::kString) return {};
    return v->string;
}

const char* exec_name(CakeExec exec)
{
    switch (exec) {
        case CakeExec::kAuto: return "auto";
        case CakeExec::kSerial: return "serial";
        case CakeExec::kPipelined: return "pipelined";
    }
    return "unknown";
}

std::optional<CakeExec> parse_exec_name(const std::string& name)
{
    if (name == "auto") return CakeExec::kAuto;
    if (name == "serial") return CakeExec::kSerial;
    if (name == "pipelined") return CakeExec::kPipelined;
    return {};
}

std::optional<Isa> parse_isa_name(const std::string& name)
{
    for (const Isa isa : kAllIsas) {
        if (name == isa_name(isa)) return isa;
    }
    return {};
}

/// Extract one entry; false (with *why) when required fields are missing
/// or mistyped — the caller skips the entry and reports it.
bool entry_from_json(const Value& v, TunedEntry& out, std::string* why)
{
    const auto fingerprint = as_string(v.find("fingerprint"));
    const auto dtype = as_string(v.find("dtype"));
    const auto elem_bytes = as_index(v.find("elem_bytes"));
    const Value* bucket = v.find("bucket", Value::Kind::kArray);
    if (!fingerprint || !dtype || !elem_bytes || bucket == nullptr
        || bucket->array.size() != 3) {
        *why = "missing/mistyped fingerprint, dtype, elem_bytes or bucket[3]";
        return false;
    }
    if (*elem_bytes < 1) {
        *why = "elem_bytes must be >= 1";
        return false;
    }
    out.fingerprint = *fingerprint;
    out.dtype = *dtype;
    out.elem_bytes = *elem_bytes;
    const auto bm = as_index(&bucket->array[0]);
    const auto bn = as_index(&bucket->array[1]);
    const auto bk = as_index(&bucket->array[2]);
    if (!bm || !bn || !bk) {
        *why = "bucket entries must be numbers";
        return false;
    }
    out.bucket_m = *bm;
    out.bucket_n = *bn;
    out.bucket_k = *bk;

    if (const Value* shape = v.find("shape", Value::Kind::kArray);
        shape != nullptr && shape->array.size() == 3) {
        out.tuned_shape.m = as_index(&shape->array[0]).value_or(0);
        out.tuned_shape.n = as_index(&shape->array[1]).value_or(0);
        out.tuned_shape.k = as_index(&shape->array[2]).value_or(0);
    }
    out.measured_gflops = as_double(v.find("measured_gflops")).value_or(0);
    out.analytic_gflops = as_double(v.find("analytic_gflops")).value_or(0);
    out.predicted_gflops = as_double(v.find("predicted_gflops")).value_or(0);
    out.rel_error_bound = as_double(v.find("rel_error_bound")).value_or(0);

    const Value* plan = v.find("plan", Value::Kind::kObject);
    if (plan == nullptr) {
        *why = "missing plan object";
        return false;
    }
    if (const auto p = as_index(plan->find("p"))) {
        out.plan.p = static_cast<int>(*p);
    }
    out.plan.mc = as_index(plan->find("mc"));
    out.plan.kc = as_index(plan->find("kc"));
    out.plan.nc = as_index(plan->find("nc"));
    out.plan.alpha = as_double(plan->find("alpha"));
    // Named fields may be absent; a name this build does not know is an
    // error. Schedule names defer to the core registry, so a kind added to
    // all_schedule_kinds() parses here with no further change.
    auto named = [&](const char* field, auto& slot, auto parse_name) {
        const auto name = as_string(plan->find(field));
        if (!name) return true;
        slot = parse_name(*name);
        if (!slot) {
            *why = std::string("unknown ") + field + " name '" + *name + "'";
        }
        return slot.has_value();
    };
    return named("schedule", out.plan.schedule, parse_schedule_kind)
        && named("exec", out.plan.exec, parse_exec_name)
        && named("isa", out.plan.isa, parse_isa_name);
}

void entry_to_json(std::ostream& os, const TunedEntry& e)
{
    // Doubles go through json::number (%.17g) so they survive a save/load
    // round trip bit-exactly: the smoke check compares the reloaded
    // winner's gflops against the in-memory one.
    os << "    {\"fingerprint\": " << json::quote(e.fingerprint)
       << ", \"dtype\": " << json::quote(e.dtype) << ", \"elem_bytes\": "
       << e.elem_bytes << ",\n     \"bucket\": ["
       << e.bucket_m << ", " << e.bucket_n << ", " << e.bucket_k
       << "], \"shape\": [" << e.tuned_shape.m << ", " << e.tuned_shape.n
       << ", " << e.tuned_shape.k << "],\n     \"plan\": {";
    const char* sep = "";
    auto field = [&](const char* name, const std::string& value) {
        os << sep << '"' << name << "\": " << value;
        sep = ", ";
    };
    if (e.plan.p) field("p", std::to_string(*e.plan.p));
    if (e.plan.mc) field("mc", std::to_string(*e.plan.mc));
    if (e.plan.kc) field("kc", std::to_string(*e.plan.kc));
    if (e.plan.nc) field("nc", std::to_string(*e.plan.nc));
    if (e.plan.alpha) field("alpha", json::number(*e.plan.alpha));
    if (e.plan.schedule) {
        field("schedule", json::quote(schedule_kind_name(*e.plan.schedule)));
    }
    if (e.plan.exec) field("exec", json::quote(exec_name(*e.plan.exec)));
    if (e.plan.isa) field("isa", json::quote(isa_name(*e.plan.isa)));
    os << "},\n     \"measured_gflops\": "
       << json::number(e.measured_gflops)
       << ", \"analytic_gflops\": " << json::number(e.analytic_gflops)
       << ", \"predicted_gflops\": " << json::number(e.predicted_gflops)
       << ", \"rel_error_bound\": " << json::number(e.rel_error_bound)
       << "}";
}

}  // namespace

const TunedEntry* TuneCache::find(const std::string& fingerprint,
                                  const std::string& dtype,
                                  index_t elem_bytes,
                                  const GemmShape& shape) const
{
    const index_t bm = shape_bucket(shape.m);
    const index_t bn = shape_bucket(shape.n);
    const index_t bk = shape_bucket(shape.k);
    for (const TunedEntry& e : entries) {
        if (e.fingerprint == fingerprint && e.dtype == dtype
            && e.elem_bytes == elem_bytes && e.bucket_m == bm
            && e.bucket_n == bn && e.bucket_k == bk) {
            return &e;
        }
    }
    return nullptr;
}

void TuneCache::upsert(const TunedEntry& entry)
{
    for (TunedEntry& e : entries) {
        if (e.fingerprint == entry.fingerprint && e.dtype == entry.dtype
            && e.elem_bytes == entry.elem_bytes
            && e.bucket_m == entry.bucket_m && e.bucket_n == entry.bucket_n
            && e.bucket_k == entry.bucket_k) {
            e = entry;
            return;
        }
    }
    entries.push_back(entry);
}

index_t shape_bucket(index_t extent)
{
    if (extent <= 16) return 16;
    // Grid: 16, 24, 32, 48, 64, 96, ... (powers of two and their 1.5x
    // midpoints). Return the smallest grid point >= extent.
    index_t pow2 = 16;
    for (;;) {
        if (extent <= pow2) return pow2;
        const index_t mid = pow2 + pow2 / 2;
        if (extent <= mid) return mid;
        pow2 *= 2;
    }
}

std::string default_cache_path()
{
    if (const char* env = std::getenv("CAKE_TUNE_CACHE");
        env != nullptr && env[0] != '\0') {
        return env;
    }
    if (const char* home = std::getenv("HOME");
        home != nullptr && home[0] != '\0') {
        return std::string(home) + "/.cache/cake/tune.json";
    }
    return "cake_tune.json";
}

CacheLoadResult load_cache(const std::string& path)
{
    CacheLoadResult result;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return result;  // first run
    result.file_existed = true;

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        result.issues.push_back(
            {"CACHE_IO", "cannot open '" + path + "' for reading"});
        return result;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
        result.issues.push_back({"CACHE_IO", "read error on '" + path + "'"});
        return result;
    }
    const std::string text = buf.str();

    Value root;
    std::string parse_error;
    if (!json::parse(text, root, &parse_error)
        || root.kind != Value::Kind::kObject) {
        result.issues.push_back(
            {"CACHE_PARSE", "'" + path + "' is not a JSON object: "
                                + (parse_error.empty() ? "wrong root type"
                                                       : parse_error)});
        return result;
    }

    const auto version = as_index(root.find("version"));
    if (!version) {
        result.issues.push_back(
            {"CACHE_PARSE", "'" + path + "' has no numeric 'version' field"});
        return result;
    }
    if (*version != kCacheVersion) {
        std::ostringstream os;
        os << "'" << path << "' is schema version " << *version
           << " but this build reads version " << kCacheVersion
           << "; ignoring it (a fresh search will rewrite it)";
        result.issues.push_back({"CACHE_VERSION", os.str()});
        return result;
    }

    const Value* entries = root.find("entries", Value::Kind::kArray);
    if (entries == nullptr) {
        result.issues.push_back(
            {"CACHE_PARSE", "'" + path + "' has no 'entries' array"});
        return result;
    }
    for (std::size_t i = 0; i < entries->array.size(); ++i) {
        TunedEntry entry;
        std::string why;
        if (entry_from_json(entries->array[i], entry, &why)) {
            result.cache.upsert(entry);
        } else {
            std::ostringstream os;
            os << "'" << path << "' entry " << i << " skipped: " << why;
            result.issues.push_back({"CACHE_PARSE", os.str()});
        }
    }
    return result;
}

bool save_cache(const TuneCache& cache, const std::string& path,
                std::string* error)
{
    const std::filesystem::path target(path);
    std::error_code ec;
    if (target.has_parent_path()) {
        std::filesystem::create_directories(target.parent_path(), ec);
        // A pre-existing directory also reports an ec of 0; real failures
        // surface when the temp file below cannot be opened.
    }

    // Write-then-rename so a crash mid-save leaves the previous cache
    // intact instead of a truncated file.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            if (error != nullptr) *error = "cannot open '" + tmp + "'";
            return false;
        }
        out << "{\n  \"version\": " << kCacheVersion << ",\n  \"entries\": [";
        for (std::size_t i = 0; i < cache.entries.size(); ++i) {
            out << (i == 0 ? "\n" : ",\n");
            entry_to_json(out, cache.entries[i]);
        }
        out << "\n  ]\n}\n";
        out.flush();
        if (!out) {
            if (error != nullptr) *error = "write error on '" + tmp + "'";
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        if (error != nullptr) {
            *error = "rename '" + tmp + "' -> '" + path
                + "' failed: " + ec.message();
        }
        return false;
    }
    return true;
}

CachedPlanSource::CachedPlanSource(TuneCache cache, std::string fingerprint)
    : cache_(std::move(cache)), fingerprint_(std::move(fingerprint))
{
}

CachedPlanSource CachedPlanSource::for_host(const std::string& path)
{
    CacheLoadResult loaded =
        load_cache(path.empty() ? default_cache_path() : path);
    return CachedPlanSource(std::move(loaded.cache),
                            host_fingerprint().key());
}

std::optional<PlanOverrides> CachedPlanSource::lookup(
    const PlanRequest& request) const
{
    // The request's element width picks the canonical dtype name AND is
    // matched against the entry's own width: an f32 winner can never be
    // served to a 2-byte (f16/bf16) or 1-byte (i8) request.
    const DtypeDesc* d = dtype_for_elem_bytes(request.elem_bytes);
    if (d == nullptr) return {};
    const GemmShape shape{request.m, request.n, request.k};
    if (const TunedEntry* e =
            cache_.find(fingerprint_, d->name, request.elem_bytes, shape)) {
        return e->plan;
    }
    return {};
}

}  // namespace tune
}  // namespace cake
