// src/tune: the empirical plan autotuner and its persisted cache.
//
// The cache tests exercise the robustness contract (round trip, version
// skew, foreign fingerprints, hostile bytes — always a clean miss, never
// a crash); the search tests drive the full tune loop with a
// deterministic mock timer so the winner is known in advance; the driver
// test proves cake_gemm actually consumes a cached winner through the
// TunedPlanSource hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "kernel/registry.hpp"
#include "machine/fingerprint.hpp"
#include "machine/machine.hpp"
#include "model/planner.hpp"
#include "ref/naive_gemm.hpp"
#include "tune/cache.hpp"
#include "tune/tune.hpp"

namespace cake {
namespace tune {
namespace {

std::string temp_cache_path(const char* tag)
{
    const auto dir = std::filesystem::temp_directory_path();
    return (dir / (std::string("cake_tune_test_") + tag + ".json")).string();
}

void write_file(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

TunedEntry sample_entry(const std::string& fingerprint)
{
    TunedEntry e;
    e.fingerprint = fingerprint;
    e.dtype = "f32";
    e.elem_bytes = 4;
    e.rel_error_bound = 1.25e-5;
    e.bucket_m = shape_bucket(500);
    e.bucket_n = shape_bucket(500);
    e.bucket_k = shape_bucket(500);
    e.plan.p = 4;
    e.plan.mc = 96;
    e.plan.kc = 128;
    e.plan.schedule = ScheduleKind::kKFirstNoFlip;
    e.plan.exec = CakeExec::kSerial;
    e.plan.isa = Isa::kScalar;
    e.tuned_shape = {500, 500, 500};
    e.measured_gflops = 123.456;
    e.analytic_gflops = 120.0;
    e.predicted_gflops = 118.75;
    return e;
}

TEST(ShapeBucket, GeometricGridWithFloor)
{
    EXPECT_EQ(shape_bucket(1), 16);
    EXPECT_EQ(shape_bucket(16), 16);
    EXPECT_EQ(shape_bucket(17), 24);
    EXPECT_EQ(shape_bucket(500), shape_bucket(512));
    EXPECT_EQ(shape_bucket(512), 512);
    // Nearby shapes share buckets; very different ones never do.
    EXPECT_NE(shape_bucket(512), shape_bucket(2000));
}

TEST(TuneCache, RoundTripWriteReloadHit)
{
    const std::string path = temp_cache_path("roundtrip");
    TuneCache cache;
    cache.upsert(sample_entry("host-a"));

    std::string error;
    ASSERT_TRUE(save_cache(cache, path, &error)) << error;

    const CacheLoadResult loaded = load_cache(path);
    EXPECT_TRUE(loaded.ok());
    EXPECT_TRUE(loaded.file_existed);
    ASSERT_EQ(loaded.cache.entries.size(), 1u);

    const TunedEntry* hit =
        loaded.cache.find("host-a", "f32", 4, {500, 500, 500});
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->plan.p, 4);
    EXPECT_EQ(hit->plan.mc, 96);
    EXPECT_EQ(hit->plan.kc, 128);
    EXPECT_FALSE(hit->plan.nc.has_value());
    EXPECT_EQ(hit->plan.schedule, ScheduleKind::kKFirstNoFlip);
    EXPECT_EQ(hit->plan.exec, CakeExec::kSerial);
    EXPECT_EQ(hit->plan.isa, Isa::kScalar);
    EXPECT_EQ(hit->tuned_shape.m, 500);
    // Doubles survive the trip bit-exactly (max_digits10 serialisation).
    EXPECT_EQ(hit->measured_gflops, 123.456);
    EXPECT_EQ(hit->predicted_gflops, 118.75);
    EXPECT_EQ(hit->elem_bytes, 4);
    EXPECT_EQ(hit->rel_error_bound, 1.25e-5);

    // A nearby shape lands in the same bucket; a distant one misses.
    EXPECT_NE(loaded.cache.find("host-a", "f32", 4, {512, 512, 512}),
              nullptr);
    EXPECT_EQ(loaded.cache.find("host-a", "f32", 4, {2000, 2000, 96}),
              nullptr);
    EXPECT_EQ(loaded.cache.find("host-a", "f64", 8, {500, 500, 500}),
              nullptr);
    // The element width is part of the key: an entry whose dtype string
    // matches but whose width disagrees never serves the request.
    EXPECT_EQ(loaded.cache.find("host-a", "f32", 2, {500, 500, 500}),
              nullptr);
    std::remove(path.c_str());
}

TEST(TuneCache, AbsentFileIsCleanFirstRunState)
{
    const CacheLoadResult loaded =
        load_cache(temp_cache_path("never_written"));
    EXPECT_TRUE(loaded.ok());
    EXPECT_FALSE(loaded.file_existed);
    EXPECT_TRUE(loaded.cache.entries.empty());
}

TEST(TuneCache, VersionMismatchIsCleanMiss)
{
    const std::string path = temp_cache_path("version");
    write_file(path,
               "{\"version\": 99, \"entries\": [{\"fingerprint\": \"x\", "
               "\"dtype\": \"f32\", \"bucket\": [512, 512, 512], "
               "\"plan\": {}}]}");
    const CacheLoadResult loaded = load_cache(path);
    EXPECT_FALSE(loaded.ok());
    ASSERT_EQ(loaded.issues.size(), 1u);
    EXPECT_EQ(loaded.issues[0].code, "CACHE_VERSION");
    EXPECT_TRUE(loaded.cache.entries.empty());
    std::remove(path.c_str());
}

TEST(TuneCache, V1FileWithoutWidthTagIsCleanMiss)
{
    // A well-formed file from the pre-elem_bytes schema (v1) must load as
    // empty with the version code — never be reinterpreted, never crash.
    const std::string path = temp_cache_path("v1_schema");
    write_file(path,
               "{\"version\": 1, \"entries\": [{\"fingerprint\": \"host-a\", "
               "\"dtype\": \"f32\", \"bucket\": [512, 512, 512], "
               "\"plan\": {\"mc\": 96}}]}");
    const CacheLoadResult loaded = load_cache(path);
    EXPECT_FALSE(loaded.ok());
    ASSERT_EQ(loaded.issues.size(), 1u);
    EXPECT_EQ(loaded.issues[0].code, "CACHE_VERSION");
    EXPECT_TRUE(loaded.cache.entries.empty());
    EXPECT_EQ(loaded.cache.find("host-a", "f32", 4, {500, 500, 500}),
              nullptr);
    std::remove(path.c_str());
}

TEST(TuneCache, EntryWidthGatesCachedPlanSource)
{
    // An f32 winner must never serve a request for a different element
    // width, even with matching fingerprint and bucket.
    TuneCache cache;
    cache.upsert(sample_entry("host"));
    CachedPlanSource source(cache, "host");

    PlanRequest req;
    req.m = req.n = req.k = 500;
    req.elem_bytes = 4;
    EXPECT_TRUE(source.lookup(req).has_value());
    req.elem_bytes = 2;
    EXPECT_FALSE(source.lookup(req).has_value());
    req.elem_bytes = 8;
    EXPECT_FALSE(source.lookup(req).has_value());
    req.elem_bytes = 3;  // no such dtype: clean miss, not a crash
    EXPECT_FALSE(source.lookup(req).has_value());
}

TEST(TuneCache, FingerprintMismatchIsInvisibleButPreserved)
{
    const std::string path = temp_cache_path("foreign");
    TuneCache cache;
    cache.upsert(sample_entry("other-machine"));
    ASSERT_TRUE(save_cache(cache, path));

    const CacheLoadResult loaded = load_cache(path);
    EXPECT_TRUE(loaded.ok());
    // Foreign entries survive the file but never serve this host.
    EXPECT_EQ(loaded.cache.entries.size(), 1u);
    EXPECT_EQ(loaded.cache.find("this-host", "f32", 4, {500, 500, 500}),
              nullptr);

    CachedPlanSource source(loaded.cache, "this-host");
    PlanRequest req;
    req.m = req.n = req.k = 500;
    EXPECT_FALSE(source.lookup(req).has_value());
    std::remove(path.c_str());
}

TEST(TuneCache, CorruptedBytesRejectedWithCode)
{
    const struct {
        const char* tag;
        const char* bytes;
    } cases[] = {
        {"truncated", "{\"version\": 2, \"entries\": [{\"fing"},
        {"not_json", "PK\x03\x04 this is not json at all"},
        {"wrong_root", "[1, 2, 3]"},
        {"no_version", "{\"entries\": []}"},
        {"deep_nest", "{\"version\": 2, \"entries\": [[[[[[[[[[[[[[[[[[[[[[["
                      "[[[[[[[[[[[[[[[[[[[[[[[[[[["},
    };
    for (const auto& c : cases) {
        const std::string path = temp_cache_path(c.tag);
        write_file(path, c.bytes);
        const CacheLoadResult loaded = load_cache(path);
        EXPECT_FALSE(loaded.ok()) << c.tag;
        ASSERT_FALSE(loaded.issues.empty()) << c.tag;
        EXPECT_EQ(loaded.issues[0].code, "CACHE_PARSE") << c.tag;
        EXPECT_TRUE(loaded.cache.entries.empty()) << c.tag;
        std::remove(path.c_str());
    }
}

TEST(TuneCache, MalformedEntrySkippedOthersSurvive)
{
    const std::string path = temp_cache_path("partial");
    // First entry is complete except for the (v2-required) elem_bytes
    // width tag; second is fine.
    write_file(
        path,
        "{\"version\": 2, \"entries\": ["
        "{\"fingerprint\": \"h\", \"dtype\": \"f32\","
        " \"bucket\": [512, 512, 512], \"plan\": {}},"
        "{\"fingerprint\": \"h\", \"dtype\": \"f32\", \"elem_bytes\": 4,"
        " \"bucket\": [512, 512, 512], \"plan\": {\"mc\": 96}}]}");
    const CacheLoadResult loaded = load_cache(path);
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.issues[0].code, "CACHE_PARSE");
    ASSERT_EQ(loaded.cache.entries.size(), 1u);
    EXPECT_EQ(loaded.cache.entries[0].plan.mc, 96);
    std::remove(path.c_str());
}

TEST(TuneCache, ScheduleNameRoundTripsEveryRegisteredKind)
{
    // The cache's schedule field round-trips through the registry's
    // canonical names (all_schedule_kinds / parse_schedule_kind): a kind
    // missing from the registry would fail here the moment a tuned winner
    // carrying it was persisted.
    const std::string path = temp_cache_path("sched_registry");
    TuneCache cache;
    for (const ScheduleKind kind : all_schedule_kinds()) {
        TunedEntry e = sample_entry(std::string("host-")
                                    + schedule_kind_name(kind));
        e.plan.schedule = kind;
        cache.upsert(e);
    }
    std::string error;
    ASSERT_TRUE(save_cache(cache, path, &error)) << error;
    const CacheLoadResult loaded = load_cache(path);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.cache.entries.size(), all_schedule_kinds().size());
    for (const ScheduleKind kind : all_schedule_kinds()) {
        const TunedEntry* hit = loaded.cache.find(
            std::string("host-") + schedule_kind_name(kind), "f32", 4,
            {500, 500, 500});
        ASSERT_NE(hit, nullptr) << schedule_kind_name(kind);
        ASSERT_TRUE(hit->plan.schedule.has_value());
        EXPECT_EQ(*hit->plan.schedule, kind);
    }
    std::remove(path.c_str());
}

TEST(TuneCache, UpsertReplacesSameKey)
{
    TuneCache cache;
    cache.upsert(sample_entry("h"));
    TunedEntry updated = sample_entry("h");
    updated.measured_gflops = 200.0;
    cache.upsert(updated);
    ASSERT_EQ(cache.entries.size(), 1u);
    EXPECT_EQ(cache.entries[0].measured_gflops, 200.0);
}

// --- Search loop under a deterministic mock timer -----------------------

MachineSpec test_machine()
{
    MachineSpec machine = intel_i9_10900k();
    machine.cores = 4;
    return machine;
}

TEST(TuneSearch, CandidateZeroIsAnalyticDefault)
{
    const MachineSpec machine = test_machine();
    const auto candidates =
        generate_candidates(machine, {512, 512, 512}, 4, machine.cores);
    ASSERT_FALSE(candidates.empty());
    EXPECT_TRUE(candidates[0].analytic_default);
    EXPECT_TRUE(candidates[0].overrides().empty()
                || !candidates[0].overrides().mc.has_value());
    // The neighbourhood is genuinely multi-point.
    EXPECT_GT(candidates.size(), 4u);
}

TEST(TuneSearch, CandidatesCoverEveryRegisteredSchedule)
{
    // Stage 2 iterates model::schedule_traffic_table, which builds one
    // row per all_schedule_kinds() entry — so every registered kind
    // (including the space-filling-curve orders) must appear in the
    // search space, with the traffic-recommended default as candidate 0.
    const MachineSpec machine = test_machine();
    const auto candidates =
        generate_candidates(machine, {512, 512, 512}, 4, machine.cores);
    std::set<ScheduleKind> covered;
    for (const auto& c : candidates) covered.insert(c.schedule);
    for (const ScheduleKind kind : all_schedule_kinds()) {
        EXPECT_TRUE(covered.count(kind) > 0)
            << schedule_kind_name(kind) << " missing from the search space";
    }
}

TEST(TuneSearch, MockTimerConvergesOnInjectedBest)
{
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    TuneRequest req;
    req.shape = {512, 512, 512};
    req.budget = 64;  // time every candidate

    // Find a non-default geometry candidate to crown.
    const auto candidates = generate_candidates(
        machine, req.shape, 4, machine.cores);
    std::optional<index_t> target_mc;
    for (const auto& c : candidates) {
        if (c.mc) {
            target_mc = c.mc;
            break;
        }
    }
    ASSERT_TRUE(target_mc.has_value());

    const double flops = req.shape.flops();
    auto mock = [&](const TuneCandidate& c) {
        // Injected best runs at 100 GF, everything else at 10 GF.
        return c.mc == target_mc ? flops / 100e9 : flops / 10e9;
    };
    const TuneOutcome outcome =
        tune_shape(pool, machine, req, "mock-host", mock);

    EXPECT_FALSE(outcome.cache_hit);
    ASSERT_FALSE(outcome.results.empty());
    EXPECT_TRUE(outcome.results[0].candidate.analytic_default);
    EXPECT_NEAR(outcome.winner.measured_gflops, 100.0, 1e-6);
    EXPECT_NEAR(outcome.winner.analytic_gflops, 10.0, 1e-6);
    ASSERT_TRUE(outcome.winner.plan.mc.has_value());
    EXPECT_EQ(outcome.winner.plan.mc, target_mc);
    // The winner can never measure worse than the analytic default.
    EXPECT_GE(outcome.winner.measured_gflops, outcome.analytic_gflops());
    // It beat the default again in the interleaved re-timing.
    ASSERT_EQ(outcome.confirm_seconds.size(), 4u);
    EXPECT_LT(outcome.confirm_seconds[1], outcome.confirm_seconds[0]);
    EXPECT_LT(outcome.confirm_seconds[3], outcome.confirm_seconds[2]);
}

TEST(TuneSearch, NoiseWinnerThatTiesTheDefaultIsNotCached)
{
    // The search times one candidate fast once (noise); re-timed beside
    // the default, interleaved, it ties. The default must be cached.
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    TuneRequest req;
    req.shape = {512, 512, 512};
    req.budget = 64;  // time every candidate

    const auto candidates = generate_candidates(
        machine, req.shape, 4, machine.cores);
    std::optional<index_t> lucky_kc;
    for (const auto& c : candidates) {
        if (c.kc) {
            lucky_kc = c.kc;
            break;
        }
    }
    ASSERT_TRUE(lucky_kc.has_value());

    const double flops = req.shape.flops();
    int lucky_timings = 0;
    std::vector<bool> timed_default;
    auto mock = [&](const TuneCandidate& c) {
        timed_default.push_back(c.analytic_default);
        if (c.kc == lucky_kc && lucky_timings++ == 0) return flops / 100e9;
        return flops / 10e9;  // the default and every other plan tie
    };
    const TuneOutcome outcome =
        tune_shape(pool, machine, req, "mock-host", mock);

    EXPECT_EQ(lucky_timings, 3);  // the search, then two re-timings
    ASSERT_EQ(outcome.confirm_seconds.size(), 4u);
    ASSERT_GE(timed_default.size(), 4u);
    const std::vector<bool> interleaved(timed_default.end() - 4,
                                        timed_default.end());
    EXPECT_EQ(interleaved, (std::vector<bool>{true, false, true, false}));
    EXPECT_FALSE(outcome.winner.plan.kc.has_value())
        << "a noise winner was cached";
    EXPECT_NEAR(outcome.winner.measured_gflops, 10.0, 1e-6);
    EXPECT_NEAR(outcome.winner.analytic_gflops, 10.0, 1e-6);
}

TEST(TuneSearch, WinnerParamsUseTheHostKernelTile)
{
    // cake_tune re-solves a winner's geometry before the schedule-IR
    // proof; the tile must be the one the winner's kernel really runs
    // (the tuner snaps a winner's mc to that kernel's mr).
    const MachineSpec machine = test_machine();
    auto expect_tile = [&](TunedEntry winner, const auto& kernel) {
        SCOPED_TRACE(kernel.name);
        winner.plan.mc = kernel.mr * 8;
        const CbBlockParams params = winner_params(machine, winner);
        EXPECT_EQ(params.mr, kernel.mr);
        EXPECT_EQ(params.nr, kernel.nr);
        EXPECT_EQ(params.mc, kernel.mr * 8);
        EXPECT_EQ(params.p, 4);
        EXPECT_EQ(params.elem_bytes, winner.elem_bytes);
    };
    TunedEntry winner = sample_entry("mock-host");
    expect_tile(winner, microkernel_for_of<float>(Isa::kScalar));
    winner.plan.isa.reset();
    expect_tile(winner, best_microkernel_of<float>());
    winner.dtype = "f64";
    winner.elem_bytes = 8;
    expect_tile(winner, best_microkernel_of<double>());
}

TEST(TuneSearch, NumericsGateRefusesAccuracyDegradingWinner)
{
    // On a deep-K shape (kb >= 2) the N-innermost schedule revisits every
    // C column once per K block: each revisit spills the partial sum and
    // pays a join-add, so its static forward error bound strictly exceeds
    // the K-first analytic default's. A mock timer that crowns exactly
    // that candidate must not be able to buy the accuracy away: the
    // candidate is refused UNTIMED and the winner keeps the default bound.
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    TuneRequest req;
    // Grid 1 x 3 x 6 for this machine's solved geometry (n_blk = 720,
    // k_blk = 180): N-innermost revisits each column 6 times.
    req.shape = {256, 1536, 1024};
    req.budget = 64;  // time every surviving candidate

    const double flops = req.shape.flops();
    int ninner_timed = 0;
    auto mock = [&](const TuneCandidate& c) {
        if (c.schedule == ScheduleKind::kNInnermost) {
            ++ninner_timed;
            return flops / 1000e9;  // "fastest plan ever measured"
        }
        return flops / 10e9;
    };
    const TuneOutcome outcome =
        tune_shape(pool, machine, req, "mock-host", mock);

    EXPECT_GE(outcome.numerics_rejected, 1);
    EXPECT_EQ(ninner_timed, 0);  // vetoed before the timer ever ran
    for (const CandidateResult& r : outcome.results) {
        EXPECT_NE(r.candidate.schedule, ScheduleKind::kNInnermost)
            << r.candidate.label;
    }
    EXPECT_FALSE(outcome.winner.plan.schedule.has_value()
                 && *outcome.winner.plan.schedule
                        == ScheduleKind::kNInnermost);
    // The recorded winner carries its (finite, positive) bound.
    EXPECT_GT(outcome.winner.rel_error_bound, 0.0);
    EXPECT_LT(outcome.winner.rel_error_bound, 1.0);
    EXPECT_EQ(outcome.winner.elem_bytes, 4);
}

TEST(TuneSearch, KernelGateRefusesUnprovenKernelsUntimed)
{
    // The kernel gate sits between the audit and numerics gates: a
    // candidate whose micro-kernel fails kernelcheck must be refused
    // before the timer ever runs. Inject a gate that rejects the scalar
    // kernels — the explicit scalar-ISA candidates are vetoed untimed
    // while the analytic default (widest kernel) sails through.
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    TuneRequest req;
    req.shape = {512, 512, 512};
    req.budget = 64;  // time every surviving candidate
    req.kernel_gate = [](const std::string& kernel, std::string* why) {
        if (kernel.rfind("scalar", 0) == 0) {
            if (why) *why = "[KIR_TEST] scalar kernels refused by mock";
            return false;
        }
        return true;
    };

    const double flops = req.shape.flops();
    int scalar_timed = 0;
    auto mock = [&](const TuneCandidate& c) {
        if (c.isa && *c.isa == Isa::kScalar) {
            ++scalar_timed;
            return flops / 1000e9;  // would win if ever timed
        }
        return flops / 10e9;
    };
    const TuneOutcome outcome =
        tune_shape(pool, machine, req, "mock-host", mock);

    EXPECT_GE(outcome.kernelcheck_rejected, 1);
    EXPECT_EQ(scalar_timed, 0);  // vetoed before the timer ever ran
    for (const CandidateResult& r : outcome.results) {
        EXPECT_FALSE(r.candidate.isa && *r.candidate.isa == Isa::kScalar)
            << r.candidate.label;
    }
    ASSERT_FALSE(outcome.results.empty());
    EXPECT_TRUE(outcome.results[0].candidate.analytic_default);
}

TEST(TuneSearch, KernelGateThrowsWhenAnalyticDefaultFails)
{
    // A gate that refuses every kernel means even candidate 0 (the
    // analytic default) is unproven — tuning must fail loudly, not fall
    // back to timing unverified code.
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    TuneRequest req;
    req.shape = {512, 512, 512};
    req.budget = 8;
    req.kernel_gate = [](const std::string&, std::string* why) {
        if (why) *why = "[KIR_TEST] all kernels refused";
        return false;
    };
    auto mock = [&](const TuneCandidate&) { return 1e-3; };
    EXPECT_THROW(tune_shape(pool, machine, req, "mock-host", mock), Error);
}

TEST(TuneSearch, RankingFlipDetection)
{
    // Model says A beats B by 25%; the machine says the opposite by 2x:
    // that pair must be reported as a flip. C agrees with the model and
    // stays out of the report.
    const std::vector<model::MeasuredPlanPoint> points = {
        {"A", 100.0, 50.0},
        {"B", 80.0, 100.0},
        {"C", 10.0, 5.0},
    };
    const model::DisagreementReport report = model::compare_rankings(points);
    ASSERT_EQ(report.flips.size(), 1u);
    EXPECT_FALSE(report.agree());
    EXPECT_EQ(report.flips[0].preferred_by_model.label, "A");
    EXPECT_EQ(report.flips[0].preferred_by_machine.label, "B");

    // Within-tolerance ties are not disagreements.
    const std::vector<model::MeasuredPlanPoint> ties = {
        {"A", 100.0, 99.5},
        {"B", 99.0, 100.0},
    };
    EXPECT_TRUE(model::compare_rankings(ties).agree());
}

TEST(TuneSearch, SecondSearchIsPureCacheHit)
{
    const MachineSpec machine = test_machine();
    ThreadPool pool(machine.cores);
    const std::string path = temp_cache_path("hit");
    std::remove(path.c_str());

    TuneRequest req;
    req.shape = {384, 384, 384};
    req.budget = 6;

    int timed = 0;
    const double flops = req.shape.flops();
    auto mock = [&](const TuneCandidate&) {
        ++timed;
        return flops / 50e9;
    };

    const TuneOutcome first =
        tune_with_cache(pool, machine, req, path, "mock-host", mock);
    EXPECT_FALSE(first.cache_hit);
    EXPECT_GT(timed, 0);

    const int timed_after_first = timed;
    const TuneOutcome second =
        tune_with_cache(pool, machine, req, path, "mock-host", mock);
    EXPECT_TRUE(second.cache_hit);
    EXPECT_EQ(timed, timed_after_first);  // nothing re-benchmarked
    EXPECT_EQ(second.winner.measured_gflops, first.winner.measured_gflops);

    // A different fingerprint misses and searches afresh.
    const TuneOutcome other =
        tune_with_cache(pool, machine, req, path, "other-host", mock);
    EXPECT_FALSE(other.cache_hit);
    EXPECT_GT(timed, timed_after_first);
    std::remove(path.c_str());
}

// --- Driver consumption through the TunedPlanSource hook ----------------

TEST(TunedPlanSource, CakeGemmConsumesCachedWinner)
{
    const index_t size = 128;
    const index_t mr = best_microkernel().mr;
    TuneCache cache;
    TunedEntry e;
    e.fingerprint = "host";
    e.dtype = "f32";
    e.bucket_m = shape_bucket(size);
    e.bucket_n = shape_bucket(size);
    e.bucket_k = shape_bucket(size);
    e.plan.mc = mr * 2;  // solver requires mc to be a multiple of mr
    e.plan.kc = 32;
    e.tuned_shape = {size, size, size};
    cache.upsert(e);
    CachedPlanSource source(cache, "host");

    ThreadPool pool(1);
    CakeOptions options;
    options.plan_source = &source;
    CakeGemm gemm(pool, options);

    Rng rng(7);
    Matrix a(size, size), b(size, size), c(size, size), want(size, size);
    a.fill_random(rng);
    b.fill_random(rng);
    gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                  size, size);
    EXPECT_TRUE(gemm.stats().tuned);
    EXPECT_EQ(gemm.stats().params.mc, mr * 2);
    EXPECT_EQ(gemm.stats().params.kc, 32);

    // Tuned geometry must still be numerically exact.
    naive_sgemm(a.data(), size, b.data(), size, want.data(), size, size,
                size, size, false);
    for (index_t i = 0; i < size * size; ++i) {
        EXPECT_NEAR(c.data()[i], want.data()[i], 1e-3f);
    }

    // A shape outside the bucket takes the pure analytic path.
    const index_t other = 512;
    Matrix a2(other, other), b2(other, other), c2(other, other);
    a2.fill_random(rng);
    b2.fill_random(rng);
    gemm.multiply(a2.data(), other, b2.data(), other, c2.data(), other,
                  other, other, other);
    EXPECT_FALSE(gemm.stats().tuned);
}

TEST(TunedPlanSource, UserOverridesBeatTunedOnes)
{
    const index_t size = 128;
    const index_t mr = best_microkernel().mr;
    TuneCache cache;
    TunedEntry e;
    e.fingerprint = "host";
    e.dtype = "f32";
    e.bucket_m = shape_bucket(size);
    e.bucket_n = shape_bucket(size);
    e.bucket_k = shape_bucket(size);
    e.plan.mc = mr * 2;
    e.tuned_shape = {size, size, size};
    cache.upsert(e);
    CachedPlanSource source(cache, "host");

    ThreadPool pool(1);
    CakeOptions options;
    options.plan_source = &source;
    options.mc = mr * 4;  // explicit user choice must win over the cache
    CakeGemm gemm(pool, options);

    Rng rng(9);
    Matrix a(size, size), b(size, size), c(size, size);
    a.fill_random(rng);
    b.fill_random(rng);
    gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                  size, size);
    EXPECT_EQ(gemm.stats().params.mc, mr * 4);
    EXPECT_FALSE(gemm.stats().tuned);
}

}  // namespace
}  // namespace tune
}  // namespace cake
