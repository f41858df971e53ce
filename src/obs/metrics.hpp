// Metrics registry for the CAKE runtime: named counters, gauges and
// fixed-bucket latency histograms that the executors (src/core,
// src/gotoblas), the packing layer, the threading primitives and the
// architecture simulator publish into. It unifies what CakeStats /
// GotoStats report per-multiply into a process-wide registry a tool or
// bench can snapshot once at the end of a run, and adds the two
// measurements the per-multiply structs cannot hold: per-tile micro-kernel
// latency histograms and per-barrier stall attribution.
//
// Contract:
//   * Registration (counter()/gauge()/histogram()) is find-or-create by
//     name and returns a small id that stays valid for the process
//     lifetime — the registry is append-only, so hot paths can cache ids
//     in static locals without lifetime hazards. metrics_reset() clears
//     VALUES, never definitions.
//   * Updates are lock-free (relaxed atomics) and cost one relaxed flag
//     load when the registry is disarmed. Arm with metrics_enable() or the
//     CAKE_TRACE environment variable (tracing and metrics share the
//     runtime switch).
//   * Snapshots are taken at quiescent points; per-metric totals are
//     internally consistent, cross-metric consistency needs quiescence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace cake {
namespace obs {

/// Opaque metric handle; 0 is "no metric" and every update ignores it.
struct MetricId {
    std::uint32_t value = 0;
};

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge, kHistogram };

/// Point-in-time copy of one metric, as returned by metrics_snapshot().
struct MetricSnapshot {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t count = 0;  ///< counter total / histogram observations
    double value = 0;         ///< gauge value / histogram sum
    std::vector<double> bounds;        ///< histogram upper bucket bounds
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (overflow)

    /// Histogram quantile in [0, 1] by linear interpolation inside the
    /// holding bucket (bucket b spans (bounds[b-1], bounds[b]]; the first
    /// bucket spans [0, bounds[0]]; the overflow bucket is clamped to its
    /// lower bound). Exact whenever the data is uniform within buckets.
    [[nodiscard]] double quantile(double q) const
    {
        if (buckets.empty() || count == 0) return 0.0;
        q = std::min(1.0, std::max(0.0, q));
        const double rank = q * static_cast<double>(count);
        double cum = 0;
        for (std::size_t b = 0; b < buckets.size(); ++b) {
            const double in_bucket = static_cast<double>(buckets[b]);
            if (in_bucket == 0) continue;
            if (cum + in_bucket >= rank) {
                const double lo = b == 0 ? 0.0 : bounds[b - 1];
                if (b >= bounds.size()) {
                    return bounds.empty() ? lo : bounds.back();
                }
                const double hi = bounds[b];
                const double fraction = std::max(0.0, rank - cum) / in_bucket;
                return lo + fraction * (hi - lo);
            }
            cum += in_bucket;
        }
        return bounds.empty() ? 0.0 : bounds.back();
    }
};

/// Arm / disarm metric updates (tracing's enable()/disable() also arm and
/// disarm metrics; these switch metrics alone).
void metrics_enable();
void metrics_disable();
[[nodiscard]] bool metrics_enabled() noexcept;

/// Zero every counter, gauge and histogram. Definitions and ids survive.
void metrics_reset();

/// Find-or-create. Re-registering an existing name returns the same id;
/// a histogram re-registered with different bounds keeps the first bounds.
MetricId counter(const char* name);
MetricId gauge(const char* name);
MetricId histogram(const char* name, std::vector<double> bucket_bounds);

void counter_add(MetricId id, std::uint64_t delta);
void gauge_set(MetricId id, double value);
void histogram_observe(MetricId id, double value);

/// Snapshot every registered metric, in registration order.
[[nodiscard]] std::vector<MetricSnapshot> metrics_snapshot();

/// Upper bucket bounds suited to nanosecond latencies: 1 us .. 100 ms in
/// 1-2-5 decades (the micro-kernel tile and barrier-wait scales).
[[nodiscard]] std::vector<double> latency_bounds_ns();

}  // namespace obs
}  // namespace cake
