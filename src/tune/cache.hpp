// Persisted tuning cache: the on-disk memory of the empirical plan
// autotuner (src/tune/tune.hpp). One versioned JSON file holds the
// winning plan per (machine fingerprint, dtype, shape bucket); a second
// `cake_tune --search` of the same shape — or any cake_gemm wired to a
// CachedPlanSource — replays the winner without re-benchmarking.
//
// Robustness contract: loading NEVER throws and NEVER crashes. A missing
// file, a truncated write, hostile JSON, a schema from a future version or
// a fingerprint from different hardware all degrade to a clean miss, each
// reported as a coded issue:
//
//   CACHE_IO       the file exists but could not be read
//   CACHE_PARSE    the bytes are not the JSON shape the schema requires
//   CACHE_VERSION  a well-formed file written by an incompatible schema
//
// (An absent file is not an issue at all — it is the normal first-run
// state.) Entries whose fingerprint differs from the caller's are kept on
// save (other machines sharing a home directory keep their plans) but are
// invisible to lookup.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/issue.hpp"
#include "common/types.hpp"
#include "core/plan_source.hpp"

namespace cake {
namespace tune {

/// Schema version of the cache file. Bump on any incompatible change;
/// files with a different version load as empty (CACHE_VERSION issue).
/// v2: the entry key carries an explicit elem_bytes dtype tag (so an f32
/// winner can never serve a future f16/i8 request) and each entry carries
/// its static forward error bound (core/fperror.hpp).
inline constexpr int kCacheVersion = 2;

/// One tuned winner: the full plan plus the evidence that earned it.
struct TunedEntry {
    std::string fingerprint;  ///< MachineFingerprint::key() of the host
    std::string dtype;        ///< "f32" | "f64" | "f16" | "bf16" | "i8"
    index_t elem_bytes = 4;   ///< element width — part of the lookup key
    index_t bucket_m = 0;     ///< shape bucket (see shape_bucket)
    index_t bucket_n = 0;
    index_t bucket_k = 0;
    PlanOverrides plan;       ///< the winning overrides
    GemmShape tuned_shape;    ///< the exact shape that was benchmarked
    double measured_gflops = 0;   ///< winner's min-of-N measurement
    double analytic_gflops = 0;   ///< measured GFLOP/s of the analytic plan
    double predicted_gflops = 0;  ///< model's prediction for the winner
    double rel_error_bound = 0;   ///< static forward error bound of the plan
};

/// In-memory cache image.
struct TuneCache {
    std::vector<TunedEntry> entries;

    /// Entry for (fingerprint, dtype, elem_bytes, bucket of shape), if
    /// present. The width is part of the key end-to-end: an entry whose
    /// elem_bytes disagrees with the request never matches, whatever its
    /// dtype string claims.
    [[nodiscard]] const TunedEntry* find(const std::string& fingerprint,
                                         const std::string& dtype,
                                         index_t elem_bytes,
                                         const GemmShape& shape) const;

    /// Insert or replace the entry with the same (fingerprint, dtype,
    /// elem_bytes, bucket) key.
    void upsert(const TunedEntry& entry);
};

/// Result of load_cache: the usable cache plus any coded issues
/// (CACHE_IO | CACHE_PARSE | CACHE_VERSION). `cache` is always safe to
/// use — on any issue it is simply empty.
struct CacheLoadResult : IssueList {
    TuneCache cache;
    bool file_existed = false;
};

/// Bucket one GEMM extent onto the tuner's geometric grid: powers of two
/// with midpoints (… 64, 96, 128, 192, 256, 384, 512 …), clamped below at
/// 16. Nearby shapes share a bucket, so one search covers a neighbourhood
/// without ever replaying a plan tuned for a very different size.
index_t shape_bucket(index_t extent);

/// Cache file location: $CAKE_TUNE_CACHE if set, else
/// $HOME/.cache/cake/tune.json (falling back to ./cake_tune.json when
/// HOME is unset).
std::string default_cache_path();

/// Load `path` under the robustness contract above (never throws).
CacheLoadResult load_cache(const std::string& path);

/// Serialise the cache (schema kCacheVersion) to `path`, creating parent
/// directories as needed. Returns false (with *error set) on IO failure.
bool save_cache(const TuneCache& cache, const std::string& path,
                std::string* error = nullptr);

/// TunedPlanSource backed by a loaded cache: buckets each request's shape
/// and serves the stored winner for this fingerprint + dtype. The cheap
/// lookup the driver performs per multiply.
class CachedPlanSource final : public TunedPlanSource {
public:
    CachedPlanSource(TuneCache cache, std::string fingerprint);

    /// Convenience: load from `path` (default default_cache_path()) for
    /// the executing host. Load issues are swallowed into an empty cache —
    /// the driver contract is "miss", never "crash".
    static CachedPlanSource for_host(const std::string& path = {});

    [[nodiscard]] std::optional<PlanOverrides> lookup(
        const PlanRequest& request) const override;

private:
    TuneCache cache_;
    std::string fingerprint_;
};

}  // namespace tune
}  // namespace cake
