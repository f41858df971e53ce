#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/env.hpp"
#include "obs/metrics.hpp"

// Lock-free ring discipline: each ring has exactly ONE writer (the thread
// that registered it) and is only read at quiescent points (collect() after
// a ThreadPool join, which supplies the happens-before edge). The atomics
// below exist for the enable/disable flag and the head counters that
// collect() reads; they are internal to this subsystem — tools/lint.sh
// rule 4 allowlists src/obs/ for exactly this file's machinery.

namespace cake {
namespace obs {

namespace {

constexpr std::size_t kDefaultCapacity = 1u << 16;

std::size_t round_up_pow2(std::size_t v)
{
    std::size_t c = 1;
    while (c < v) c <<= 1;
    return c;
}

/// One thread's event ring. Owner-only writes; head_ is released so a
/// quiescent collector sees every slot the counter covers.
struct Ring {
    explicit Ring(std::size_t capacity, std::uint64_t index)
        : slots(capacity), mask(capacity - 1), thread_index(index)
    {
    }

    std::vector<TraceEvent> slots;
    std::size_t mask;
    std::uint64_t thread_index;
    std::atomic<std::uint64_t> head{0};

    void push(const TraceEvent& ev) noexcept
    {
        const std::uint64_t h = head.load(std::memory_order_relaxed);
        slots[static_cast<std::size_t>(h) & mask] = ev;
        head.store(h + 1, std::memory_order_release);
    }
};

struct Registry {
    std::mutex mutex;
    std::vector<std::unique_ptr<Ring>> rings;
    std::size_t capacity = kDefaultCapacity;
};

Registry& registry()
{
    static Registry r;
    return r;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_env_checked{false};
/// Bumped by reset(); stale thread-local ring pointers are abandoned when
/// their generation no longer matches.
std::atomic<std::uint64_t> g_generation{1};

thread_local Ring* tls_ring = nullptr;
thread_local std::uint64_t tls_generation = 0;
thread_local int tls_worker = -1;

std::chrono::steady_clock::time_point epoch()
{
    static const auto t0 = std::chrono::steady_clock::now();
    return t0;
}

/// Consult CAKE_TRACE / CAKE_TRACE_CAPACITY exactly once per process.
void check_env_once()
{
    if (g_env_checked.exchange(true, std::memory_order_acq_rel)) return;
    (void)epoch();
    if (const auto cap = env_long("CAKE_TRACE_CAPACITY");
        cap.has_value() && *cap > 0) {
        std::lock_guard<std::mutex> lock(registry().mutex);
        registry().capacity =
            round_up_pow2(static_cast<std::size_t>(*cap));
    }
    if (const auto armed = env_long("CAKE_TRACE");
        armed.has_value() && *armed != 0) {
        g_enabled.store(true, std::memory_order_release);
        metrics_enable();  // CAKE_TRACE arms tracing AND metrics
    }
}

Ring* this_thread_ring()
{
    const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
    if (tls_ring != nullptr && tls_generation == gen) return tls_ring;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.rings.push_back(std::make_unique<Ring>(
        reg.capacity, static_cast<std::uint64_t>(reg.rings.size())));
    tls_ring = reg.rings.back().get();
    tls_generation = gen;
    return tls_ring;
}

void push_event(const char* name, Phase phase, std::uint64_t start_ns,
                std::uint64_t dur_ns, index_t mb, index_t nb, index_t kb,
                index_t tile)
{
    TraceEvent ev;
    ev.start_ns = start_ns;
    ev.dur_ns = dur_ns;
    ev.name = name;
    ev.tile = tile;
    ev.worker = tls_worker;
    ev.mb = static_cast<std::int32_t>(mb);
    ev.nb = static_cast<std::int32_t>(nb);
    ev.kb = static_cast<std::int32_t>(kb);
    ev.phase = phase;
    this_thread_ring()->push(ev);
}

}  // namespace

void enable(std::size_t capacity_per_thread)
{
    check_env_once();
    if (capacity_per_thread > 0) {
        std::lock_guard<std::mutex> lock(registry().mutex);
        registry().capacity = round_up_pow2(capacity_per_thread);
    }
    g_enabled.store(true, std::memory_order_release);
    metrics_enable();  // shared runtime switch (see metrics.hpp contract)
}

void disable()
{
    check_env_once();
    g_enabled.store(false, std::memory_order_release);
    metrics_disable();
}

void reset()
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    registry().rings.clear();
    g_generation.fetch_add(1, std::memory_order_acq_rel);
}

bool enabled() noexcept
{
    if (!g_env_checked.load(std::memory_order_acquire)) check_env_once();
    return g_enabled.load(std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch())
            .count());
}

std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp) noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch())
            .count());
}

void ensure_thread_ring()
{
    if (enabled()) (void)this_thread_ring();
}

std::size_t ring_capacity() noexcept
{
    std::lock_guard<std::mutex> lock(registry().mutex);
    return registry().capacity;
}

void set_thread_worker(int tid) noexcept { tls_worker = tid; }

int thread_worker() noexcept { return tls_worker; }

void emit_span(const char* name, Phase phase, std::uint64_t start_ns,
               std::uint64_t end_ns, index_t mb, index_t nb, index_t kb,
               index_t tile)
{
    if (!enabled()) return;
    const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 1;
    push_event(name, phase, start_ns, dur, mb, nb, kb, tile);
}

void emit_instant(const char* name, Phase phase, index_t mb, index_t nb,
                  index_t kb, index_t tile)
{
    if (!enabled()) return;
    push_event(name, phase, now_ns(), 0, mb, nb, kb, tile);
}

TraceDump collect()
{
    TraceDump dump;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    dump.threads.reserve(reg.rings.size());
    for (const auto& ring : reg.rings) {
        ThreadTrace t;
        t.thread_index = ring->thread_index;
        const std::uint64_t head =
            ring->head.load(std::memory_order_acquire);
        const std::uint64_t cap = ring->slots.size();
        t.dropped = head > cap ? head - cap : 0;
        const std::uint64_t live = head > cap ? cap : head;
        t.events.reserve(static_cast<std::size_t>(live));
        for (std::uint64_t i = head - live; i < head; ++i) {
            t.events.push_back(
                ring->slots[static_cast<std::size_t>(i) & ring->mask]);
        }
        dump.threads.push_back(std::move(t));
    }
    return dump;
}

}  // namespace obs
}  // namespace cake
