// Silicon-truth observability tests: the perf_event counter layer
// (src/obs/perf) and the structured bench telemetry pipeline
// (bench/bench_json.hpp + tools/bench_gate).
//
// Counter availability is environment-dependent by design — containers,
// perf_event_paranoid and PMU-less VMs all deny hardware events — so the
// live-path tests run on SOFTWARE events (task-clock opens wherever
// perf_event_open works at all) and GTEST_SKIP when even those are denied.
// The degradation paths (bogus events, denied groups, disarmed layer) are
// asserted unconditionally: they must behave identically everywhere.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.hpp"
#include "common/csv.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "threading/thread_pool.hpp"

namespace {

using namespace cake;
namespace perf = cake::obs::perf;

/// Busy work that the optimiser cannot delete (the result is asserted),
/// long enough for task-clock to tick.
[[maybe_unused]] double busy_work(int iters)
{
    double acc = 0;
    for (int i = 0; i < iters; ++i) {
        acc += static_cast<double>(i % 7) * 1e-9;
    }
    return acc;
}

#if CAKE_PERF_ENABLED

TEST(PerfGroup, BogusEventDegradesToUnusable)
{
    // PERF_TYPE_HARDWARE with an absurd config id: every kernel rejects
    // it, on PMU-less hosts and bare metal alike. The group must report
    // unusable with a decoded reason instead of failing hard.
    std::vector<perf::CounterSpec> specs = {
        {"bogus", 0 /* PERF_TYPE_HARDWARE */, 0xdeadbeefULL}};
    perf::PerfCounterGroup group(specs);
    EXPECT_FALSE(group.usable());
    EXPECT_FALSE(group.error().empty());
    perf::CounterSet set;
    EXPECT_FALSE(group.read(&set));
}

TEST(PerfGroup, ProbeIsConsistent)
{
    const perf::Availability a = perf::probe();
    if (a.usable) {
        EXPECT_GT(a.opened, 0u);
    } else {
        EXPECT_FALSE(a.reason.empty());
    }
}

TEST(PerfRuntime, DisarmedScopesAccumulateNothing)
{
    perf::reset();
    ASSERT_FALSE(perf::enabled());
    {
        perf::ScopedPhaseDelta scope(obs::Phase::kPack);
        EXPECT_GT(busy_work(1000), 0.0);
    }
    const perf::PerfDump dump = perf::collect();
    EXPECT_TRUE(dump.workers.empty());
}

TEST(PerfRuntime, PerPhaseDeltasAcrossRunTeam)
{
    perf::reset();
    if (!perf::enable(perf::software_counter_specs())) {
        perf::disable();
        GTEST_SKIP() << "perf_event_open denied even for software events: "
                     << perf::collect().availability.reason;
    }

    ThreadPool pool(2);
    double sink[2] = {0, 0};
    pool.run_team(2, [&](TeamContext&, int tid) {
        {
            perf::ScopedPhaseDelta pack_scope(obs::Phase::kPack);
            sink[tid] += busy_work(400000);
        }
        {
            perf::ScopedPhaseDelta compute_scope(obs::Phase::kCompute);
            sink[tid] += busy_work(400000);
        }
    });
    perf::disable();
    const perf::PerfDump dump = perf::collect();
    EXPECT_GT(sink[0], 0.0);
    EXPECT_GT(sink[1], 0.0);

    // Both team members must appear, attributed by their worker id, with
    // task-clock deltas in exactly the phases they scoped.
    const int clock_slot = dump.slot("task-clock-ns");
    ASSERT_GE(clock_slot, 0);
    const auto slot = static_cast<std::size_t>(clock_slot);
    int seen = 0;
    for (const perf::WorkerPerf& w : dump.workers) {
        if (w.worker != 0 && w.worker != 1) continue;
        ++seen;
        const perf::CounterSet& pack =
            w.phase[static_cast<std::size_t>(obs::Phase::kPack)];
        const perf::CounterSet& compute =
            w.phase[static_cast<std::size_t>(obs::Phase::kCompute)];
        const perf::CounterSet& flush =
            w.phase[static_cast<std::size_t>(obs::Phase::kFlush)];
        ASSERT_TRUE(pack.available[slot]);
        ASSERT_TRUE(compute.available[slot]);
        EXPECT_GT(pack.value[slot], 0u);
        EXPECT_GT(compute.value[slot], 0u);
        // Nothing scoped kFlush, so nothing may be attributed to it.
        EXPECT_EQ(flush.value[slot], 0u);
    }
    EXPECT_EQ(seen, 2);

    // total() folds phases; total_of folds workers — both must agree.
    std::uint64_t total = 0;
    ASSERT_TRUE(dump.total_of("task-clock-ns", &total));
    std::uint64_t by_worker = 0;
    for (const perf::WorkerPerf& w : dump.workers) {
        by_worker += w.total().value[slot];
    }
    EXPECT_EQ(total, by_worker);
    perf::reset();
}

TEST(PerfRuntime, ResetDropsAccumulators)
{
    perf::reset();
    if (!perf::enable(perf::software_counter_specs())) {
        perf::disable();
        GTEST_SKIP() << "perf_event_open denied for software events";
    }
    {
        perf::ScopedPhaseDelta scope(obs::Phase::kCompute);
        EXPECT_GT(busy_work(100000), 0.0);
    }
    perf::disable();
    EXPECT_FALSE(perf::collect().workers.empty());
    perf::reset();
    EXPECT_TRUE(perf::collect().workers.empty());
}

#endif  // CAKE_PERF_ENABLED

// --- derived metrics (live in every build mode) -------------------------

perf::PerfDump synthetic_dump(std::uint64_t misses, std::uint64_t lines)
{
    perf::PerfDump dump;
    dump.line_bytes = lines;
    dump.specs = {{"cycles", 0, 0}, {"llc-load-misses", 0, 3}};
    perf::WorkerPerf w;
    w.worker = 0;
    perf::CounterSet& set =
        w.phase[static_cast<std::size_t>(obs::Phase::kCompute)];
    set.n = 2;
    set.value[0] = 1000;
    set.available[0] = true;
    set.value[1] = misses;
    set.available[1] = true;
    dump.workers.push_back(w);
    dump.availability.usable = true;
    return dump;
}

TEST(PerfDerived, DivergenceFromSyntheticDump)
{
    // 1000 misses x 64-byte lines = 64000 measured bytes.
    const perf::PerfDump dump = synthetic_dump(1000, 64);
    const perf::Divergence d = perf::dram_divergence(dump, 80000.0);
    EXPECT_TRUE(d.measured);
    EXPECT_DOUBLE_EQ(d.measured_bytes, 64000.0);
    EXPECT_DOUBLE_EQ(d.ratio, 0.8);
    EXPECT_DOUBLE_EQ(d.divergence, 0.2);

    // Without the miss counter the divergence is unmeasurable, not zero.
    perf::PerfDump no_miss = dump;
    no_miss.specs[1].name = "something-else";
    const perf::Divergence dm = perf::dram_divergence(no_miss, 80000.0);
    EXPECT_FALSE(dm.measured);
}

TEST(PerfDerived, OperatingPointFromSyntheticDump)
{
    const perf::PerfDump dump = synthetic_dump(1000, 64);
    const perf::OperatingPoint op =
        perf::operating_point(dump, 1.28e6, 0.001);
    EXPECT_TRUE(op.measured);
    EXPECT_DOUBLE_EQ(op.ai, 1.28e6 / 64000.0);
    EXPECT_DOUBLE_EQ(op.gflops, 1.28e6 / 0.001 * 1e-9);
}

// --- BENCH JSON schema --------------------------------------------------

TEST(BenchJson, MetricKeySanitisation)
{
    EXPECT_EQ(bench::metric_key("GFLOP/s"), "gflop_s");
    EXPECT_EQ(bench::metric_key("DRAM (GB/s)"), "dram__gb_s_");
    EXPECT_EQ(bench::metric_key("total_ms"), "total_ms");
}

TEST(BenchJson, CellNumberParsing)
{
    EXPECT_EQ(bench::cell_number("1.5").value_or(-1), 1.5);
    EXPECT_EQ(bench::cell_number("-2e3").value_or(-1), -2000.0);
    EXPECT_FALSE(bench::cell_number("-").has_value());
    EXPECT_FALSE(bench::cell_number("").has_value());
    EXPECT_FALSE(bench::cell_number("1.5x").has_value());
    EXPECT_FALSE(bench::cell_number("inf").has_value());
    EXPECT_FALSE(bench::cell_number("nan").has_value());
}

TEST(BenchJson, TableRoundTripsBitExact)
{
    Table table({"case", "GFLOP/s", "seconds", "note"});
    table.add_row({"square", "123.456", "0.0078125", "ok"});
    table.add_row({"skewed", "17.1700000000000017", "-", "degraded"});

    bench::BenchRecord record =
        bench::record_from_table(table, "unit_test");
    record.machine_key = "test|machine";
    record.machine_json = "{\"cores\": 4}";
    record.context["tuned_plans"] = "off";

    std::ostringstream os;
    bench::write_bench_json(record, os);
    bench::BenchRecord back;
    std::string error;
    ASSERT_TRUE(bench::parse_bench_json(os.str(), &back, &error)) << error;

    EXPECT_EQ(back.schema, bench::kBenchSchemaVersion);
    EXPECT_EQ(back.bench, "unit_test");
    EXPECT_EQ(back.machine_key, "test|machine");
    EXPECT_EQ(back.context.at("tuned_plans"), "off");
    ASSERT_EQ(back.cases.size(), 2u);
    EXPECT_EQ(back.cases[0].name, "square");
    EXPECT_EQ(back.cases[0].metrics.at("gflop_s"), 123.456);
    EXPECT_EQ(back.cases[0].metrics.at("seconds"), 0.0078125);
    EXPECT_EQ(back.cases[0].labels.at("note"), "ok");
    // %.17g writing means the parse returns the identical double.
    EXPECT_EQ(back.cases[1].metrics.at("gflop_s"), 17.1700000000000017);
    // "-" cells are labels, never metrics.
    EXPECT_EQ(back.cases[1].metrics.count("seconds"), 0u);
    EXPECT_EQ(back.cases[1].labels.at("seconds"), "-");
}

TEST(BenchJson, ParserRejectsMalformedDocuments)
{
    bench::BenchRecord out;
    std::string error;
    EXPECT_FALSE(bench::parse_bench_json("", &out, &error));
    EXPECT_FALSE(bench::parse_bench_json("[]", &out, &error));
    EXPECT_FALSE(bench::parse_bench_json("{\"schema\": 1}", &out, &error));
    EXPECT_FALSE(bench::parse_bench_json(
        "{\"schema\": 99, \"bench\": \"x\", \"cases\": []}", &out, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(bench::parse_bench_json(
        "{\"schema\": 1, \"bench\": \"x\", \"cases\": []} trailing", &out,
        &error));
    // A bare sign or exponent is not a number (it must not gate as 0).
    EXPECT_FALSE(bench::parse_bench_json(
        "{\"schema\": 1, \"bench\": \"x\", \"cases\": [{\"name\": \"a\","
        " \"metrics\": {\"gflops\":-,\"s\":e}}]}",
        &out, &error));
    // Hostile nesting is a parse error, not a stack overflow.
    EXPECT_FALSE(
        bench::parse_bench_json(std::string(200000, '['), &out, &error));
}

TEST(BenchJson, LoadDistinguishesMissingFromMalformed)
{
    bench::BenchRecord out;
    std::string error;
    EXPECT_EQ(bench::load_bench_json("/nonexistent/bench.json", &out,
                                     &error),
              bench::BenchLoad::kMissing);
}

// --- baseline gate ------------------------------------------------------

bench::BenchRecord gate_record(double gflops, double seconds)
{
    bench::BenchRecord r;
    r.bench = "gate_test";
    bench::BenchCase c;
    c.name = "square";
    c.metrics["gflop_s"] = gflops;
    c.metrics["seconds"] = seconds;
    r.cases.push_back(c);
    return r;
}

TEST(BenchGate, PassesWithinTolerance)
{
    const bench::GateSpec spec;  // default 10%
    const bench::GateResult r = bench::gate_compare(
        gate_record(100, 1.0), gate_record(95, 1.05), spec);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.compared, 2u);
}

TEST(BenchGate, DirectionAwareness)
{
    const bench::GateSpec spec;
    // Throughput dropping 20% regresses; rising 20% never does.
    EXPECT_FALSE(bench::gate_compare(gate_record(100, 1.0),
                                     gate_record(80, 1.0), spec)
                     .ok);
    EXPECT_TRUE(bench::gate_compare(gate_record(100, 1.0),
                                    gate_record(120, 1.0), spec)
                    .ok);
    // Cost metrics mirror: seconds rising 20% regresses, falling passes.
    EXPECT_FALSE(bench::gate_compare(gate_record(100, 1.0),
                                     gate_record(100, 1.2), spec)
                     .ok);
    EXPECT_TRUE(bench::gate_compare(gate_record(100, 1.0),
                                    gate_record(100, 0.8), spec)
                    .ok);
}

TEST(BenchGate, PerMetricToleranceOverride)
{
    bench::GateSpec spec;
    spec.tol["gflop_s"] = 0.30;
    EXPECT_TRUE(bench::gate_compare(gate_record(100, 1.0),
                                    gate_record(75, 1.0), spec)
                    .ok);
    spec.tol["gflop_s"] = 0.05;
    EXPECT_FALSE(bench::gate_compare(gate_record(100, 1.0),
                                     gate_record(92, 1.0), spec)
                     .ok);
}

TEST(BenchGate, MissingCaseAndMetricAreFindings)
{
    const bench::GateSpec spec;
    bench::BenchRecord run = gate_record(100, 1.0);
    run.cases[0].name = "renamed";
    bench::GateResult r =
        bench::gate_compare(gate_record(100, 1.0), run, spec);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].what, "missing-case");

    run = gate_record(100, 1.0);
    run.cases[0].metrics.erase("seconds");
    r = bench::gate_compare(gate_record(100, 1.0), run, spec);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].what, "missing-metric");
    EXPECT_EQ(r.findings[0].metric, "seconds");
}

TEST(BenchGate, ExtraRunContentNeverFails)
{
    const bench::GateSpec spec;
    bench::BenchRecord run = gate_record(100, 1.0);
    run.cases[0].metrics["new_metric"] = 42;
    bench::BenchCase extra;
    extra.name = "new-case";
    run.cases.push_back(extra);
    EXPECT_TRUE(bench::gate_compare(gate_record(100, 1.0), run, spec).ok);
}

TEST(BenchGate, MetricDirectionHeuristics)
{
    EXPECT_EQ(bench::metric_direction("gflop_s"), 1);
    EXPECT_EQ(bench::metric_direction("speedup"), 1);
    EXPECT_EQ(bench::metric_direction("seconds"), -1);
    EXPECT_EQ(bench::metric_direction("dram_read_bytes"), -1);
    EXPECT_EQ(bench::metric_direction("stall__ms_"), -1);
    EXPECT_EQ(bench::metric_direction("total_ms"), -1);
    EXPECT_EQ(bench::metric_direction("alpha"), 0);
}

}  // namespace
