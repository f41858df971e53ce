// Per-worker event tracer for the CB-block execution pipeline.
//
// The paper's evaluation (§5, Figs. 7-12) attributes wall time and DRAM
// traffic to packing, compute and writeback phases with PMU profilers
// (VTune/perf) this environment cannot use. CakeStats/GotoStats aggregate
// the same phases, but aggregates cannot show *where* the pipelined
// executor stalls or which CB block's packing failed to overlap. This
// tracer is the software substitute for the PMU: every executor work item,
// barrier wait and GOTO pass can record a scoped span — phase, CB-block
// coordinates (mb, nb, kb), tile/item index, worker id, monotonic
// nanosecond timestamps — into a per-thread lock-free ring buffer, and
// tools/cake_trace exports the result as Perfetto/chrome://tracing JSON
// with a terminal self-profile (top spans, per-worker stall breakdown,
// overlap timeline).
//
// Design constraints, in order:
//   * Recording must be cheap enough to leave on in instrumented runs: one
//     relaxed atomic load when tracing is off at runtime, and an owner-only
//     ring-buffer store (no lock, no allocation, no syscall) when on.
//   * Each thread owns its ring exclusively — emission is wait-free and
//     per-thread ordered. On overflow the ring wraps, keeping the NEWEST
//     events and counting the drops (the end of a run is where the
//     interesting stalls are).
//   * collect()/enable()/disable()/reset() are control-plane calls; they
//     must only run while no traced parallel section is in flight (the
//     ThreadPool join that ends a multiply provides the happens-before
//     edge that makes collection race-free).
//
// Build modes follow the checked.hpp pattern, inverted: tracing is
// ALWAYS-COMPILABLE and dormant until the CAKE_TRACE environment variable
// (or obs::enable()) arms it; configuring with -DCAKE_TRACE_DISABLED=ON
// compiles the whole subsystem out — every entry point below becomes a
// constexpr no-op, trace.cpp/metrics.cpp/export.cpp become empty
// translation units, and release objects carry no cake::obs symbol at all
// (enforced by the nm gate in .github/workflows/analysis.yml).
//
// Runtime knobs:
//   CAKE_TRACE           nonzero: arm tracing + metrics at first use
//   CAKE_TRACE_CAPACITY  events per thread ring (default 65536, rounded up
//                        to a power of two)
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

#if defined(CAKE_TRACE_DISABLED) && CAKE_TRACE_DISABLED
#define CAKE_OBS_ENABLED 0
#else
#define CAKE_OBS_ENABLED 1
#endif

namespace cake {
namespace obs {

/// Execution phase a span belongs to (the paper's pack / compute /
/// writeback decomposition, plus the synchronisation time between them).
enum class Phase : std::uint8_t {
    kNone = 0,
    kPack,     ///< A/B panel packing (the DRAM fetch of a surface)
    kCompute,  ///< micro-kernel macro-loop work
    kFlush,    ///< band write-back of local C to user C
    kBarrier,  ///< SpinBarrier wait (per-worker stall attribution)
    kOther,    ///< anything else (tool-defined)
};

/// Stable display name of a phase ("pack", "compute", ...).
constexpr const char* phase_name(Phase phase) noexcept
{
    switch (phase) {
        case Phase::kNone: return "none";
        case Phase::kPack: return "pack";
        case Phase::kCompute: return "compute";
        case Phase::kFlush: return "flush";
        case Phase::kBarrier: return "barrier";
        case Phase::kOther: return "other";
    }
    return "unknown";
}

/// One recorded event. `dur_ns == 0` marks an instant event; spans carry
/// [start_ns, start_ns + dur_ns) on the shared monotonic trace clock.
/// `name` must have static storage duration (string literals).
struct TraceEvent {
    std::uint64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
    const char* name = "";
    std::int64_t tile = -1;   ///< work-item / tile index, -1 = n/a
    std::int32_t worker = -1; ///< team tid at emission, -1 = outside a job
    std::int32_t mb = -1;     ///< CB-block grid coordinate, -1 = n/a
    std::int32_t nb = -1;
    std::int32_t kb = -1;
    Phase phase = Phase::kNone;
};

/// All events one thread recorded, oldest first.
struct ThreadTrace {
    std::uint64_t thread_index = 0;  ///< registration order, stable per run
    std::uint64_t dropped = 0;       ///< events overwritten by wraparound
    std::vector<TraceEvent> events;
};

/// Snapshot of every thread's ring, as returned by collect().
struct TraceDump {
    std::vector<ThreadTrace> threads;

    [[nodiscard]] std::size_t total_events() const
    {
        std::size_t n = 0;
        for (const ThreadTrace& t : threads) n += t.events.size();
        return n;
    }

    [[nodiscard]] std::uint64_t total_dropped() const
    {
        std::uint64_t n = 0;
        for (const ThreadTrace& t : threads) n += t.dropped;
        return n;
    }
};

#if CAKE_OBS_ENABLED

// --- runtime control (quiescent points only) ----------------------------

/// Arm the tracer (and the metrics registry). `capacity_per_thread` of 0
/// keeps the current capacity (CAKE_TRACE_CAPACITY or the default).
/// Existing rings are kept; new threads allocate at the new capacity.
void enable(std::size_t capacity_per_thread = 0);

/// Disarm recording. Already-recorded events remain collectable.
void disable();

/// Drop every ring and recorded event (threads re-register on their next
/// emission). Must not run concurrently with traced sections.
void reset();

/// True iff recording is armed. First call consults CAKE_TRACE.
[[nodiscard]] bool enabled() noexcept;

/// Snapshot all per-thread rings (oldest event first per thread). Must not
/// run concurrently with traced sections.
[[nodiscard]] TraceDump collect();

/// Nanoseconds on the shared monotonic trace clock.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Rebase a steady_clock reading onto the trace clock. Lets code that
/// already times work with steady_clock (the executors' phase stats) reuse
/// the SAME readings for span emission, so stats and spans agree exactly
/// instead of differing by the cost of a second clock pair.
[[nodiscard]] std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point tp) noexcept;

/// Pre-register the calling thread's event ring. A thread's first emission
/// otherwise allocates the ring (capacity * sizeof(TraceEvent)) inside
/// whatever span is being timed; tools call this on every worker before a
/// traced run to keep that cost out of the trace.
void ensure_thread_ring();

/// Events per ring currently used for new thread registrations.
[[nodiscard]] std::size_t ring_capacity() noexcept;

// --- worker attribution (set by ThreadPool around each job) -------------

void set_thread_worker(int tid) noexcept;
[[nodiscard]] int thread_worker() noexcept;

// --- emission -----------------------------------------------------------

/// Record a completed span. No-op when tracing is off.
void emit_span(const char* name, Phase phase, std::uint64_t start_ns,
               std::uint64_t end_ns, index_t mb = -1, index_t nb = -1,
               index_t kb = -1, index_t tile = -1);

/// Record an instant event. No-op when tracing is off.
void emit_instant(const char* name, Phase phase, index_t mb = -1,
                  index_t nb = -1, index_t kb = -1, index_t tile = -1);

/// RAII span: captures the start timestamp if tracing is armed at
/// construction and emits on destruction. Cost when tracing is off: one
/// relaxed atomic load.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, Phase phase, index_t mb = -1,
                        index_t nb = -1, index_t kb = -1, index_t tile = -1)
    {
        if (enabled()) {
            name_ = name;
            phase_ = phase;
            mb_ = mb;
            nb_ = nb;
            kb_ = kb;
            tile_ = tile;
            start_ = now_ns();
            armed_ = true;
        }
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    ~ScopedSpan()
    {
        if (armed_) {
            emit_span(name_, phase_, start_, now_ns(), mb_, nb_, kb_, tile_);
        }
    }

private:
    const char* name_ = "";
    std::uint64_t start_ = 0;
    index_t mb_ = -1, nb_ = -1, kb_ = -1, tile_ = -1;
    Phase phase_ = Phase::kNone;
    bool armed_ = false;
};

#else  // !CAKE_OBS_ENABLED

// Compiled-out build (-DCAKE_TRACE_DISABLED=ON): every entry point is a
// constexpr no-op the optimiser deletes at the call site; trace.cpp is an
// empty translation unit, so no cake::obs symbol reaches release objects.

constexpr void enable(std::size_t /*capacity_per_thread*/ = 0) {}
constexpr void disable() {}
constexpr void reset() {}
[[nodiscard]] constexpr bool enabled() noexcept { return false; }
[[nodiscard]] inline TraceDump collect() { return {}; }
[[nodiscard]] constexpr std::uint64_t now_ns() noexcept { return 0; }
[[nodiscard]] constexpr std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point /*tp*/) noexcept
{
    return 0;
}
constexpr void ensure_thread_ring() {}
[[nodiscard]] constexpr std::size_t ring_capacity() noexcept { return 0; }

constexpr void set_thread_worker(int /*tid*/) noexcept {}
[[nodiscard]] constexpr int thread_worker() noexcept { return -1; }

constexpr void emit_span(const char* /*name*/, Phase /*phase*/,
                         std::uint64_t /*start_ns*/, std::uint64_t /*end_ns*/,
                         index_t /*mb*/ = -1, index_t /*nb*/ = -1,
                         index_t /*kb*/ = -1, index_t /*tile*/ = -1)
{
}
constexpr void emit_instant(const char* /*name*/, Phase /*phase*/,
                            index_t /*mb*/ = -1, index_t /*nb*/ = -1,
                            index_t /*kb*/ = -1, index_t /*tile*/ = -1)
{
}

class ScopedSpan {
public:
    explicit constexpr ScopedSpan(const char* /*name*/, Phase /*phase*/,
                                  index_t /*mb*/ = -1, index_t /*nb*/ = -1,
                                  index_t /*kb*/ = -1, index_t /*tile*/ = -1)
    {
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
};

#endif  // CAKE_OBS_ENABLED

}  // namespace obs
}  // namespace cake
