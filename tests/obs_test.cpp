// Tests for the src/obs tracer, metrics registry and exporters: ring
// wraparound semantics, concurrent emission from a worker team, executor
// stats <-> trace agreement, Perfetto JSON validity, and histogram
// bucket/quantile exactness, and the runtime switch that leaves a
// disarmed process recording nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "threading/thread_pool.hpp"

namespace cake {
namespace {

obs::MetricSnapshot known_histogram()
{
    obs::MetricSnapshot s;
    s.name = "test";
    s.kind = obs::MetricKind::kHistogram;
    s.bounds = {10.0, 20.0};
    s.buckets = {4, 4, 2};  // [0,10], (10,20], overflow
    s.count = 10;
    s.value = 150;
    return s;
}

TEST(ObsQuantile, LinearInterpolationIsExactOnKnownBuckets)
{
    const obs::MetricSnapshot s = known_histogram();
    // rank 2 of 10 falls in [0,10] at fraction 2/4.
    EXPECT_DOUBLE_EQ(s.quantile(0.2), 5.0);
    // rank 5 falls in (10,20] at fraction (5-4)/4.
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 12.5);
    // rank 8 exactly drains the second bucket.
    EXPECT_DOUBLE_EQ(s.quantile(0.8), 20.0);
    // Overflow bucket clamps to the last finite bound.
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
}

TEST(ObsQuantile, EmptyHistogramReturnsZero)
{
    obs::MetricSnapshot s;
    s.kind = obs::MetricKind::kHistogram;
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    s.bounds = {10.0};
    s.buckets = {0, 0};
    s.count = 0;
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

/// Every trace test starts and ends from a clean, disarmed tracer.
class ObsTraceTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        obs::disable();
        obs::metrics_disable();
        obs::reset();
        obs::metrics_reset();
    }
    void TearDown() override
    {
        obs::disable();
        obs::metrics_disable();
        obs::reset();
        obs::metrics_reset();
    }
};

TEST_F(ObsTraceTest, WraparoundKeepsNewestAndCountsDrops)
{
    obs::enable(8);
    ASSERT_EQ(obs::ring_capacity(), 8u);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t t0 = obs::now_ns();
        obs::emit_span("wrap", obs::Phase::kOther, t0, t0 + 5, -1, -1, -1,
                       i);
    }
    obs::disable();
    const obs::TraceDump dump = obs::collect();
    ASSERT_EQ(dump.threads.size(), 1u);
    const obs::ThreadTrace& t = dump.threads[0];
    EXPECT_EQ(t.events.size(), 8u);
    EXPECT_EQ(t.dropped, 12u);
    // Oldest-first collection of the NEWEST eight events: tiles 12..19.
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        EXPECT_EQ(t.events[i].tile, static_cast<index_t>(12 + i));
    }
    EXPECT_EQ(dump.total_events(), 8u);
    EXPECT_EQ(dump.total_dropped(), 12u);
}

/// Total observations (counts plus gauge/histogram values) of every
/// registered metric whose name starts with one of `prefixes`.
double observations(std::initializer_list<std::string> prefixes)
{
    double total = 0;
    for (const obs::MetricSnapshot& s : obs::metrics_snapshot()) {
        for (const std::string& prefix : prefixes) {
            if (s.name.rfind(prefix, 0) == 0) {
                total += static_cast<double>(s.count) + std::abs(s.value);
            }
        }
    }
    return total;
}

TEST_F(ObsTraceTest, RuntimeDisabledRecordsNothing)
{
    obs::enable(64);
    obs::disable();
    EXPECT_FALSE(obs::enabled());
    EXPECT_FALSE(obs::metrics_enabled());
    {
        obs::ScopedSpan span("off", obs::Phase::kOther);
    }
    obs::emit_instant("off", obs::Phase::kOther);
    EXPECT_EQ(obs::collect().total_events(), 0u);

    obs::counter_add(obs::counter("obs_test.off_counter"), 3);
    obs::histogram_observe(obs::histogram("obs_test.off_hist", {10.0}), 5.0);
    EXPECT_EQ(observations({"obs_test.off_"}), 0.0);

    // An armed multiply publishes (so the disarmed check below is not
    // vacuous); a disarmed one publishes no metric and emits no span.
    ThreadPool pool(1);
    Rng rng(5);
    const GemmShape shape{96, 80, 72};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    Matrix out(shape.m, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    CakeOptions opts;
    opts.exec = CakeExec::kPipelined;
    CakeGemm gemm(pool, opts);
    const auto run = [&] {
        gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(),
                      shape.n, shape.m, shape.n, shape.k);
    };
    obs::enable(1u << 12);
    run();
    obs::disable();
    EXPECT_GT(obs::collect().total_events(), 0u);
    EXPECT_GT(observations({"cake.gemm.", "cake.kernel.tile_ns"}), 0.0);

    obs::reset();
    obs::metrics_reset();
    run();
    EXPECT_EQ(obs::collect().total_events(), 0u);
    EXPECT_EQ(observations({"cake.gemm.", "cake.kernel.tile_ns"}), 0.0);
}

TEST_F(ObsTraceTest, ScopedSpansNestPerThread)
{
    obs::enable(64);
    {
        obs::ScopedSpan outer("outer", obs::Phase::kOther);
        {
            obs::ScopedSpan inner("inner", obs::Phase::kCompute, 1, 2, 3, 4);
        }
    }
    obs::disable();
    const obs::TraceDump dump = obs::collect();
    ASSERT_EQ(dump.threads.size(), 1u);
    ASSERT_EQ(dump.threads[0].events.size(), 2u);
    // Destruction order: inner emits first.
    const obs::TraceEvent& inner = dump.threads[0].events[0];
    const obs::TraceEvent& outer = dump.threads[0].events[1];
    EXPECT_STREQ(inner.name, "inner");
    EXPECT_STREQ(outer.name, "outer");
    EXPECT_GE(inner.start_ns, outer.start_ns);
    EXPECT_LE(inner.start_ns + inner.dur_ns, outer.start_ns + outer.dur_ns);
    EXPECT_EQ(inner.mb, 1);
    EXPECT_EQ(inner.nb, 2);
    EXPECT_EQ(inner.kb, 3);
    EXPECT_EQ(inner.tile, 4);
    EXPECT_EQ(inner.phase, obs::Phase::kCompute);
}

TEST_F(ObsTraceTest, ConcurrentTeamEmissionLosesNothing)
{
    constexpr int kWorkers = 4;
    constexpr int kSpans = 200;
    ThreadPool pool(kWorkers);
    obs::enable(1024);
    pool.run_team(kWorkers, [&](TeamContext& team, int tid) {
        for (int i = 0; i < kSpans; ++i) {
            const std::uint64_t t0 = obs::now_ns();
            obs::emit_span("team", obs::Phase::kCompute, t0, t0 + 10, -1,
                           -1, -1, tid * kSpans + i);
        }
        team.barrier();
    });
    obs::disable();
    const obs::TraceDump dump = obs::collect();
    EXPECT_EQ(dump.total_dropped(), 0u);
    // Every worker id 0..3 must have emitted exactly kSpans "team" events
    // (team.barrier() adds its own "barrier.wait" spans on top), and each
    // thread's ring must be internally ordered by start time.
    std::vector<int> per_worker(kWorkers, 0);
    bool saw_barrier = false;
    for (const obs::ThreadTrace& t : dump.threads) {
        std::uint64_t prev = 0;
        for (const obs::TraceEvent& ev : t.events) {
            EXPECT_GE(ev.start_ns, prev);
            prev = ev.start_ns;
            if (ev.phase == obs::Phase::kBarrier) saw_barrier = true;
            if (std::string(ev.name) != "team") continue;
            ASSERT_GE(ev.worker, 0);
            ASSERT_LT(ev.worker, kWorkers);
            ++per_worker[static_cast<std::size_t>(ev.worker)];
        }
    }
    for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(per_worker[w], kSpans);
    EXPECT_TRUE(saw_barrier);
}

TEST_F(ObsTraceTest, PipelinedSpanTotalsMatchCakeStats)
{
    const int p = 2;
    ThreadPool pool(p);
    Rng rng(7);
    const GemmShape shape{256, 256, 256};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    Matrix out(shape.m, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions opts;
    opts.p = p;
    opts.exec = CakeExec::kPipelined;
    CakeGemm gemm(pool, opts);
    obs::enable(1u << 16);
    gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(), shape.n,
                  shape.m, shape.n, shape.k);
    obs::disable();

    const obs::TraceDump dump = obs::collect();
    const obs::ProfileReport report = obs::profile(dump);
    EXPECT_GT(report.total_events, 0u);
    EXPECT_EQ(report.total_dropped, 0u);

    // The pipelined executor feeds its phase stats and its spans from the
    // SAME clock readings, so per-worker span totals / p equal the stats
    // up to ns truncation per span (ceil: a handful of microseconds).
    const CakeStats& s = gemm.stats();
    const double ns_slack =
        static_cast<double>(report.total_events) * 2e-9 + 1e-5;
    EXPECT_NEAR(report.phase_total_s(obs::Phase::kPack) / p, s.pack_seconds,
                ns_slack);
    EXPECT_NEAR(report.phase_total_s(obs::Phase::kCompute) / p,
                s.compute_seconds, ns_slack);

    // Both team workers must have recorded spans and phase attribution.
    int team_workers = 0;
    for (const obs::WorkerProfile& w : report.workers) {
        if (w.worker >= 0) {
            ++team_workers;
            EXPECT_GT(w.events, 0u);
        }
    }
    EXPECT_EQ(team_workers, p);
}

TEST_F(ObsTraceTest, PerfettoJsonValidatesAndCarriesLaneMetadata)
{
    ThreadPool pool(2);
    obs::enable(256);
    pool.run_team(2, [&](TeamContext& team, int tid) {
        const std::uint64_t t0 = obs::now_ns();
        obs::emit_span("work", obs::Phase::kCompute, t0, t0 + 1000, 1, 2, 3,
                       tid);
        obs::emit_instant("mark", obs::Phase::kOther);
        team.barrier();
    });
    obs::disable();
    const obs::TraceDump dump = obs::collect();
    std::ostringstream os;
    obs::write_perfetto_json(dump, os);
    const std::string json = os.str();

    std::string error;
    EXPECT_TRUE(obs::validate_perfetto_json(json, &error)) << error;
    // Lane metadata and event kinds the Perfetto UI keys off.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("worker 0"), std::string::npos);
    EXPECT_NE(json.find("worker 1"), std::string::npos);
}

TEST_F(ObsTraceTest, PerfettoValidatorRejectsMalformedTraces)
{
    std::string error;
    EXPECT_FALSE(obs::validate_perfetto_json("", &error));
    EXPECT_FALSE(obs::validate_perfetto_json("[]", &error));
    EXPECT_FALSE(obs::validate_perfetto_json("{}", &error));
    EXPECT_FALSE(obs::validate_perfetto_json(
        "{\"traceEvents\":[{\"ph\":5}]}", &error));
    EXPECT_FALSE(obs::validate_perfetto_json(
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":1,"
        "\"tid\":1,\"ts\":0}]}",
        &error));  // X without dur
    EXPECT_FALSE(obs::validate_perfetto_json(
        "{\"traceEvents\":[]} trailing", &error));
    EXPECT_FALSE(obs::validate_perfetto_json(
        "{\"traceEvents\":[{\"ph\":\"X\"", &error));  // truncated
    // Malformed numbers and hostile nesting return false, never throw or
    // overflow the stack.
    EXPECT_FALSE(obs::validate_perfetto_json("{\"traceEvents\":[-]}", &error));
    EXPECT_FALSE(obs::validate_perfetto_json("[1e999]", &error));
    EXPECT_FALSE(
        obs::validate_perfetto_json(std::string(200000, '['), &error));
    EXPECT_TRUE(obs::validate_perfetto_json("{\"traceEvents\":[]}", &error))
        << error;
}

TEST_F(ObsTraceTest, MetricsRegistryFindOrCreateAndReset)
{
    const obs::MetricId a = obs::counter("obs_test.counter");
    const obs::MetricId b = obs::counter("obs_test.counter");
    EXPECT_EQ(a.value, b.value);
    EXPECT_NE(a.value, 0u);

    obs::metrics_enable();
    obs::counter_add(a, 5);
    obs::gauge_set(obs::gauge("obs_test.gauge"), 2.5);
    const obs::MetricId h =
        obs::histogram("obs_test.hist", {10.0, 20.0, 30.0});
    for (const double v : {5.0, 10.0, 15.0, 25.0, 35.0, 40.0}) {
        obs::histogram_observe(h, v);
    }
    obs::metrics_disable();

    auto find = [](const std::vector<obs::MetricSnapshot>& snaps,
                   const std::string& name) -> const obs::MetricSnapshot* {
        for (const auto& s : snaps) {
            if (s.name == name) return &s;
        }
        return nullptr;
    };
    std::vector<obs::MetricSnapshot> snaps = obs::metrics_snapshot();
    const obs::MetricSnapshot* counter = find(snaps, "obs_test.counter");
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->count, 5u);
    const obs::MetricSnapshot* gauge = find(snaps, "obs_test.gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_DOUBLE_EQ(gauge->value, 2.5);
    const obs::MetricSnapshot* hist = find(snaps, "obs_test.hist");
    ASSERT_NE(hist, nullptr);
    ASSERT_EQ(hist->buckets.size(), 4u);
    // lower_bound bucketing: 5,10 | 15,20? -> (10,20] holds 15 only.
    EXPECT_EQ(hist->buckets[0], 2u);  // 5, 10
    EXPECT_EQ(hist->buckets[1], 1u);  // 15
    EXPECT_EQ(hist->buckets[2], 1u);  // 25
    EXPECT_EQ(hist->buckets[3], 2u);  // 35, 40 overflow
    EXPECT_EQ(hist->count, 6u);
    EXPECT_DOUBLE_EQ(hist->value, 130.0);
    // rank 3 of 6 drains bucket 0 (2) and takes (3-2)/1 of (10,20].
    EXPECT_DOUBLE_EQ(hist->quantile(0.5), 20.0);

    // Reset clears values but keeps definitions and ids.
    obs::metrics_reset();
    snaps = obs::metrics_snapshot();
    const obs::MetricSnapshot* after = find(snaps, "obs_test.counter");
    ASSERT_NE(after, nullptr);
    EXPECT_EQ(after->count, 0u);
    EXPECT_EQ(obs::counter("obs_test.counter").value, a.value);
}

TEST_F(ObsTraceTest, ExecutorsPublishMetrics)
{
    ThreadPool pool(1);
    Rng rng(3);
    const GemmShape shape{128, 128, 128};
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    Matrix out(shape.m, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);

    obs::metrics_enable();
    CakeOptions opts;
    opts.exec = CakeExec::kPipelined;
    CakeGemm gemm(pool, opts);
    gemm.multiply(a.data(), shape.k, b.data(), shape.n, out.data(), shape.n,
                  shape.m, shape.n, shape.k);
    obs::metrics_disable();

    bool saw_multiplies = false, saw_tiles = false, saw_pack = false;
    for (const obs::MetricSnapshot& s : obs::metrics_snapshot()) {
        if (s.name == "cake.gemm.multiplies" && s.count >= 1) {
            saw_multiplies = true;
        }
        if (s.name == "cake.kernel.tile_ns" && s.count > 0) saw_tiles = true;
        if (s.name == "pack.a_panels" && s.count > 0) saw_pack = true;
    }
    EXPECT_TRUE(saw_multiplies);
    EXPECT_TRUE(saw_tiles);
    EXPECT_TRUE(saw_pack);

    // The int8 packers report through the same pack.* counters: one
    // multiply adds A and B panels and their source bytes (1 per element).
    obs::metrics_reset();
    std::vector<std::uint8_t> a8(
        static_cast<std::size_t>(shape.m * shape.k), 1);
    std::vector<std::int8_t> b8(
        static_cast<std::size_t>(shape.k * shape.n), 1);
    std::vector<std::int32_t> c8(
        static_cast<std::size_t>(shape.m * shape.n), 0);
    obs::metrics_enable();
    CakeGemmInt8 gemm8(pool, opts);
    gemm8.multiply(a8.data(), shape.k, b8.data(), shape.n, c8.data(),
                   shape.n, shape.m, shape.n, shape.k);
    obs::metrics_disable();
    std::uint64_t a_panels = 0, b_panels = 0, src_bytes = 0;
    for (const obs::MetricSnapshot& s : obs::metrics_snapshot()) {
        if (s.name == "pack.a_panels") a_panels = s.count;
        if (s.name == "pack.b_panels") b_panels = s.count;
        if (s.name == "pack.src_bytes") src_bytes = s.count;
    }
    EXPECT_GT(a_panels, 0u);
    EXPECT_GT(b_panels, 0u);
    EXPECT_GE(src_bytes, static_cast<std::uint64_t>(
                             shape.m * shape.k + shape.k * shape.n));
}

}  // namespace
}  // namespace cake
