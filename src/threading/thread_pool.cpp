#include "threading/thread_pool.hpp"

#include <algorithm>

#include "analysis/racecheck.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cake {

namespace {

/// Pool whose job the current thread is executing (nullptr outside jobs).
/// Lets run()/run_team() detect re-entrant dispatch, which would deadlock:
/// the nested job waits on workers that are waiting for the outer job.
thread_local const ThreadPool* tls_active_pool = nullptr;

obs::MetricId pool_jobs_counter()
{
    static const obs::MetricId id = obs::counter("threading.pool.jobs");
    return id;
}

/// Tag the current thread with its team tid for the obs tracer, restoring
/// the previous attribution on scope exit (nested dispatch keeps the outer
/// job's id after the inner one completes).
struct ScopedWorkerId {
    int prev;

    explicit ScopedWorkerId(int tid) : prev(obs::thread_worker())
    {
        obs::set_thread_worker(tid);
    }
    ScopedWorkerId(const ScopedWorkerId&) = delete;
    ScopedWorkerId& operator=(const ScopedWorkerId&) = delete;
    ~ScopedWorkerId() { obs::set_thread_worker(prev); }
};

}  // namespace

void TeamContext::record_error(std::exception_ptr error) noexcept
{
    {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = error;
    }
    has_error_.store(true, std::memory_order_release);
    barrier_.break_barrier();
}

std::exception_ptr TeamContext::first_error() const
{
    std::lock_guard<std::mutex> lock(error_mutex_);
    return error_;
}

ThreadPool::ThreadPool(int size) : size_(size)
{
    CAKE_CHECK(size >= 1);
    // CAKE_RACECHECK: a pool constructed at a recycled address must not
    // inherit a dead pool's fork/join clocks.
    racecheck::on_pool_create(this);
    workers_.reserve(static_cast<std::size_t>(size - 1));
    for (int i = 1; i < size; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void ThreadPool::execute_slot(int tid)
{
    const std::function<void(int)>* fn = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fn = job_fn_;
    }
    const ThreadPool* prev_pool = tls_active_pool;
    tls_active_pool = this;
    ScopedWorkerId worker_id(tid);
    // CAKE_RACECHECK fork edge: everything the dispatching thread did
    // before run() happened-before this member's work. The matching exit
    // hook folds this member's clock into the pool's join clock *before*
    // the remaining_ decrement that releases the caller.
    racecheck::on_worker_enter(this, tid);
    try {
        (*fn)(tid);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
    }
    tls_active_pool = prev_pool;
    racecheck::on_worker_exit(this);
    bool last = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        last = (--remaining_ == 0);
    }
    if (last) done_cv_.notify_all();
}

void ThreadPool::worker_loop(int worker_id)
{
    long seen_job = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            start_cv_.wait(lock, [&] {
                return stop_ || (job_id_ != seen_job && worker_id < job_width_);
            });
            if (stop_) return;
            seen_job = job_id_;
        }
        execute_slot(worker_id);
    }
}

void ThreadPool::run(int width, const std::function<void(int)>& fn)
{
    CAKE_CHECK_MSG(width >= 1 && width <= size_,
                   "job width " << width << " outside [1, " << size_ << "]");
    obs::counter_add(pool_jobs_counter(), 1);
    if (width == 1) {
        ScopedWorkerId worker_id(0);
        fn(0);
        return;
    }
    CAKE_CHECK_MSG(tls_active_pool != this,
                   "re-entrant ThreadPool::run from inside one of this "
                   "pool's own jobs would deadlock; restructure as a single "
                   "job or use run_team with team barriers");
    racecheck::on_fork(this);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_fn_ = &fn;
        job_width_ = width;
        remaining_ = width;
        first_error_ = nullptr;
        ++job_id_;
    }
    start_cv_.notify_all();
    execute_slot(0);  // calling thread is worker 0
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [&] { return remaining_ == 0; });
        err = first_error_;
        job_fn_ = nullptr;
        job_width_ = 0;
    }
    // CAKE_RACECHECK join edge: every member's work happened-before the
    // code after run() returns (or rethrows).
    racecheck::on_join(this);
    if (err) std::rethrow_exception(err);
}

void ThreadPool::run_team(int width,
                          const std::function<void(TeamContext&, int)>& fn)
{
    CAKE_CHECK_MSG(width >= 1 && width <= size_,
                   "team width " << width << " outside [1, " << size_
                                 << "]");
    TeamContext ctx(width);
    auto member = [&](int tid) {
        try {
            fn(ctx, tid);
        } catch (...) {
            ctx.record_error(std::current_exception());
        }
    };
    if (width == 1) {
        ScopedWorkerId worker_id(0);
        member(0);
    } else {
        CAKE_CHECK_MSG(tls_active_pool != this,
                       "re-entrant ThreadPool::run_team from inside one of "
                       "this pool's own jobs would deadlock");
        run(width, member);
    }
    if (auto err = ctx.first_error()) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(index_t begin, index_t end, int width,
                              const std::function<void(index_t, index_t)>& fn)
{
    CAKE_CHECK(begin <= end);
    const index_t total = end - begin;
    if (total == 0) return;
    width = static_cast<int>(
        std::min<index_t>(width, std::max<index_t>(total, 1)));
    width = std::clamp(width, 1, size_);
    const index_t chunk = (total + width - 1) / width;
    run(width, [&](int tid) {
        const index_t lo = begin + tid * chunk;
        const index_t hi = std::min(end, lo + chunk);
        if (lo < hi) fn(lo, hi);
    });
}

}  // namespace cake
