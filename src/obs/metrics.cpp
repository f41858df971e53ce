#include "obs/metrics.hpp"

#include <algorithm>

#include <atomic>
#include <memory>
#include <mutex>

namespace cake {
namespace obs {

namespace {

/// One registered metric. Entries are append-only and never move after
/// registration (deque-like storage via unique_ptr), so cached MetricIds
/// and in-flight updates stay valid across registrations.
struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::atomic<std::uint64_t> count{0};   ///< counter / observation count
    std::atomic<double> value{0.0};        ///< gauge value / histogram sum
    std::vector<double> bounds;            ///< histogram upper bounds
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;  // bounds + 1
};

/// Fixed-capacity slot table so resolve() is a lock-free indexed read:
/// slots never move and slot i is fully constructed before `size` is
/// release-published, so an id obtained from a completed registration can
/// be dereferenced without the mutex. 256 named metrics is far above what
/// the instrumented layers register (~30).
constexpr std::size_t kMaxMetrics = 256;

struct MetricRegistry {
    std::mutex mutex;  ///< registration only
    std::unique_ptr<Metric> slots[kMaxMetrics];
    std::atomic<std::size_t> size{0};
};

MetricRegistry& registry()
{
    static MetricRegistry r;
    return r;
}

std::atomic<bool> g_metrics_enabled{false};

MetricId register_metric(const char* name, MetricKind kind,
                         std::vector<double> bounds)
{
    MetricRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::size_t n = reg.size.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        if (reg.slots[i]->name == name && reg.slots[i]->kind == kind) {
            return {static_cast<std::uint32_t>(i + 1)};
        }
    }
    if (n == kMaxMetrics) return {};  // table full: updates become no-ops
    auto m = std::make_unique<Metric>();
    m->name = name;
    m->kind = kind;
    if (kind == MetricKind::kHistogram) {
        std::sort(bounds.begin(), bounds.end());
        m->bounds = std::move(bounds);
        m->buckets = std::make_unique<std::atomic<std::uint64_t>[]>(
            m->bounds.size() + 1);
        for (std::size_t b = 0; b <= m->bounds.size(); ++b) {
            m->buckets[b].store(0, std::memory_order_relaxed);
        }
    }
    reg.slots[n] = std::move(m);
    reg.size.store(n + 1, std::memory_order_release);
    return {static_cast<std::uint32_t>(n + 1)};
}

/// Resolve an id to its metric; nullptr for the null id. Lock-free: ids
/// index the fixed slot table and registration release-publishes `size`
/// after constructing the slot.
Metric* resolve(MetricId id)
{
    if (id.value == 0) return nullptr;
    MetricRegistry& reg = registry();
    if (id.value > reg.size.load(std::memory_order_acquire)) return nullptr;
    return reg.slots[id.value - 1].get();
}

}  // namespace

void metrics_enable()
{
    g_metrics_enabled.store(true, std::memory_order_release);
}

void metrics_disable()
{
    g_metrics_enabled.store(false, std::memory_order_release);
}

bool metrics_enabled() noexcept
{
    // Tracing's env check also arms metrics (shared CAKE_TRACE switch):
    // enabled() consults the environment on first use and enable() calls
    // metrics_enable() — see trace.cpp / the callers in enable paths.
    return g_metrics_enabled.load(std::memory_order_relaxed);
}

void metrics_reset()
{
    MetricRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::size_t n = reg.size.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
        Metric& m = *reg.slots[i];
        m.count.store(0, std::memory_order_relaxed);
        m.value.store(0.0, std::memory_order_relaxed);
        for (std::size_t b = 0; b <= m.bounds.size(); ++b) {
            if (m.buckets) m.buckets[b].store(0, std::memory_order_relaxed);
        }
    }
}

MetricId counter(const char* name)
{
    return register_metric(name, MetricKind::kCounter, {});
}

MetricId gauge(const char* name)
{
    return register_metric(name, MetricKind::kGauge, {});
}

MetricId histogram(const char* name, std::vector<double> bucket_bounds)
{
    return register_metric(name, MetricKind::kHistogram,
                           std::move(bucket_bounds));
}

void counter_add(MetricId id, std::uint64_t delta)
{
    if (!metrics_enabled()) return;
    if (Metric* m = resolve(id); m != nullptr) {
        m->count.fetch_add(delta, std::memory_order_relaxed);
    }
}

void gauge_set(MetricId id, double value)
{
    if (!metrics_enabled()) return;
    if (Metric* m = resolve(id); m != nullptr) {
        m->value.store(value, std::memory_order_relaxed);
        m->count.fetch_add(1, std::memory_order_relaxed);
    }
}

void histogram_observe(MetricId id, double value)
{
    if (!metrics_enabled()) return;
    Metric* m = resolve(id);
    if (m == nullptr || !m->buckets) return;
    const auto it =
        std::lower_bound(m->bounds.begin(), m->bounds.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - m->bounds.begin());
    m->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
    m->count.fetch_add(1, std::memory_order_relaxed);
    m->value.fetch_add(value, std::memory_order_relaxed);
}

std::vector<MetricSnapshot> metrics_snapshot()
{
    std::vector<MetricSnapshot> out;
    MetricRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::size_t n = reg.size.load(std::memory_order_relaxed);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Metric& m = *reg.slots[i];
        MetricSnapshot s;
        s.name = m.name;
        s.kind = m.kind;
        s.count = m.count.load(std::memory_order_relaxed);
        s.value = m.value.load(std::memory_order_relaxed);
        s.bounds = m.bounds;
        if (m.buckets) {
            s.buckets.resize(m.bounds.size() + 1);
            for (std::size_t b = 0; b <= m.bounds.size(); ++b) {
                s.buckets[b] = m.buckets[b].load(std::memory_order_relaxed);
            }
        }
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<double> latency_bounds_ns()
{
    std::vector<double> bounds;
    for (double decade = 1e3; decade <= 1e8; decade *= 10) {
        bounds.push_back(decade);
        bounds.push_back(decade * 2);
        bounds.push_back(decade * 5);
    }
    return bounds;
}

}  // namespace obs
}  // namespace cake
