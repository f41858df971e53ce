#include "threading/barrier.hpp"

#include <thread>

#include "analysis/racecheck.hpp"
#include "analysis/schedshake.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cake {

namespace {

obs::MetricId barrier_wait_hist()
{
    static const obs::MetricId id = obs::histogram(
        "threading.barrier.wait_ns", obs::latency_bounds_ns());
    return id;
}

/// One barrier crossing's span + wait-latency observation. RAII so every
/// return path in arrive_and_wait (fast, last-arriver, spin, sleep,
/// broken) is attributed. Costs two relaxed flag loads when tracing is
/// disarmed.
struct BarrierWaitObs {
    std::uint64_t t0 = 0;
    bool armed = false;

    BarrierWaitObs()
    {
        if (obs::enabled() || obs::metrics_enabled()) {
            armed = true;
            t0 = obs::now_ns();
        }
    }
    BarrierWaitObs(const BarrierWaitObs&) = delete;
    BarrierWaitObs& operator=(const BarrierWaitObs&) = delete;
    ~BarrierWaitObs()
    {
        if (!armed) return;
        const std::uint64_t t1 = obs::now_ns();
        obs::emit_span("barrier.wait", obs::Phase::kBarrier, t0, t1);
        obs::histogram_observe(barrier_wait_hist(),
                               static_cast<double>(t1 - t0));
    }
};

}  // namespace

Barrier::Barrier(int participants) : participants_(participants)
{
    CAKE_CHECK(participants >= 1);
}

void Barrier::arrive_and_wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    const long my_generation = generation_;
    if (++waiting_ == participants_) {
        waiting_ = 0;
        ++generation_;
        lock.unlock();
        cv_.notify_all();
        return;
    }
    cv_.wait(lock, [&] { return generation_ != my_generation; });
}

long Barrier::generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

namespace {

/// Pause briefly inside a spin loop without giving up the time slice.
inline void cpu_relax() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Spin iterations before falling back to yield. Kept small: when the
/// machine is oversubscribed (more workers than hardware threads) the
/// missing participant cannot arrive until we yield the core to it.
constexpr int kSpinIters = 256;

/// Yields tolerated after the spin budget before blocking on the condvar.
/// Covers ordinary scheduling jitter; a participant still missing after
/// this many yields is not going to arrive within a time slice, so
/// continuing to yield would only steal CPU from it.
constexpr int kYieldIters = 32;

}  // namespace

SpinBarrier::SpinBarrier(int participants) : participants_(participants)
{
    CAKE_CHECK(participants >= 1);
    // CAKE_RACECHECK: barriers live on run_team stack frames, so a new
    // barrier may reuse the address of a dead one; drop any stale clocks.
    racecheck::on_barrier_create(this);
}

void SpinBarrier::arrive_and_wait()
{
    if (broken_.load(std::memory_order_acquire)) return;
    BarrierWaitObs wait_obs;
    schedshake::interleave_point(schedshake::Point::kBarrierArrive);
    if (participants_ == 1) {
        const long gen = generation_.load(std::memory_order_relaxed);
        racecheck::on_barrier_arrive(this, gen, participants_);
        generation_.fetch_add(1, std::memory_order_acq_rel);
        racecheck::on_barrier_depart(this, gen);
        return;
    }
    const long gen = generation_.load(std::memory_order_acquire);
    // CAKE_RACECHECK: the arrive hook merges this thread's clock into the
    // generation's gather and must run *before* the fetch_add below — once
    // the last arriver bumps generation_, any teammate may depart and has
    // to observe every arrival's contribution.
    racecheck::on_barrier_arrive(this, gen, participants_);
    // Arrivals form a release sequence on arrived_: the last arriver's RMW
    // acquires every earlier arrival's writes, and its store to generation_
    // publishes them to all waiters. seq_cst on the generation bump and the
    // sleepers_ check below pairs with the seq_cst in the waiter's slow
    // path: either the waiter observes the new generation before sleeping
    // or the releaser observes the registered sleeper and notifies.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1
        == participants_) {
        arrived_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_seq_cst) > 0) {
            { std::lock_guard<std::mutex> lock(sleep_mutex_); }
            sleep_cv_.notify_all();
        }
        racecheck::on_barrier_depart(this, gen);
        schedshake::interleave_point(schedshake::Point::kBarrierDepart);
        return;
    }
    int spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen
           && !broken_.load(std::memory_order_acquire)) {
        ++spins;
        if (spins < kSpinIters) {
            cpu_relax();
        } else if (spins < kSpinIters + kYieldIters) {
            std::this_thread::yield();
        } else {
            sleepers_.fetch_add(1, std::memory_order_seq_cst);
            {
                std::unique_lock<std::mutex> lock(sleep_mutex_);
                sleep_cv_.wait(lock, [&] {
                    return generation_.load(std::memory_order_seq_cst) != gen
                        || broken_.load(std::memory_order_acquire);
                });
            }
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
            // CAKE_RACECHECK: only a real generation crossing is a
            // happens-before edge — a waiter released by break_barrier()
            // did not synchronise with anyone and must not merge clocks.
            if (generation_.load(std::memory_order_acquire) != gen) {
                racecheck::on_barrier_depart(this, gen);
            }
            schedshake::interleave_point(
                schedshake::Point::kBarrierDepart);
            return;
        }
    }
    if (generation_.load(std::memory_order_acquire) != gen) {
        racecheck::on_barrier_depart(this, gen);
    }
    schedshake::interleave_point(schedshake::Point::kBarrierDepart);
}

void SpinBarrier::break_barrier() noexcept
{
    broken_.store(true, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
        { std::lock_guard<std::mutex> lock(sleep_mutex_); }
        sleep_cv_.notify_all();
    }
}

}  // namespace cake
