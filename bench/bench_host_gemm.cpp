// Google-benchmark microbenchmarks of the real software stack on the host
// CPU: CAKE vs GOTO vs blocked-naive wall-clock, micro-kernel throughput,
// and packing cost. (Host validation; the paper's multi-core scaling
// figures come from the bench_fig* harnesses.)
//
// Custom main (not benchmark_main): wires the persisted tuning cache into
// the CAKE benches (`--no-tune` reverts to analytic plans).
#include <benchmark/benchmark.h>

#include <cmath>
#include <type_traits>
#include <vector>

#include "bench_io.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/batched.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "core/fperror.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/registry.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"

namespace {

using namespace cake;

ThreadPool& pool()
{
    static ThreadPool instance(host_machine().cores);
    return instance;
}

/// Plan oracle for the CAKE benches; set once in main() before any
/// benchmark runs, nullptr when --no-tune (or the tuner is compiled out).
const TunedPlanSource* g_plan_source = nullptr;

CakeOptions tuned_options()
{
    CakeOptions options;
    options.plan_source = g_plan_source;
    return options;
}

/// Accuracy column: max relative error of a strided sample of C elements
/// against a higher-precision oracle (double for f32, long double for
/// f64), with the Higham denominator sum_k |a||b|. Sampled so the 2048^3
/// benches stay fast; paired with the plan's static bound it shows the
/// measured error sitting under the proved ceiling on every run.
template <typename T>
double sampled_max_rel_error(const T* a, const T* b, const T* c,
                             index_t size)
{
    using OT =
        std::conditional_t<sizeof(T) == 8, long double, double>;
    const index_t stride = size > 64 ? size / 32 : 1;
    double worst = 0.0;
    for (index_t i = 0; i < size; i += stride) {
        for (index_t j = 0; j < size; j += stride) {
            OT acc = 0, denom = 0;
            for (index_t p = 0; p < size; ++p) {
                const OT av = a[static_cast<std::size_t>(i * size + p)];
                const OT bv = b[static_cast<std::size_t>(p * size + j)];
                acc += av * bv;
                denom += std::abs(av) * std::abs(bv);
            }
            if (denom == 0) continue;
            const OT err = std::abs(
                static_cast<OT>(c[static_cast<std::size_t>(i * size + j)])
                - acc);
            worst = std::max(worst, static_cast<double>(err / denom));
        }
    }
    return worst;
}

void BM_CakeSgemm(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    Rng rng(1);
    Matrix a(size, size);
    Matrix b(size, size);
    Matrix c(size, size);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeGemm gemm(pool(), tuned_options());
    for (auto _ : state) {
        gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * size * size * size * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
    state.counters["max_rel_err"] =
        sampled_max_rel_error(a.data(), b.data(), c.data(), size);
    state.counters["err_bound"] =
        plan_error_bound({size, size, size}, gemm.stats().params,
                         ScheduleKind::kKFirstSerpentine, dtype_f32())
            .rel_bound;
}
BENCHMARK(BM_CakeSgemm)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_GotoSgemm(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    Rng rng(2);
    Matrix a(size, size);
    Matrix b(size, size);
    Matrix c(size, size);
    a.fill_random(rng);
    b.fill_random(rng);

    GotoGemm gemm(pool());
    for (auto _ : state) {
        gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * size * size * size * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
    state.counters["max_rel_err"] =
        sampled_max_rel_error(a.data(), b.data(), c.data(), size);
    state.counters["err_bound"] =
        goto_error_bound({size, size, size}, gemm.stats().kc, dtype_f32())
            .rel_bound;
}
BENCHMARK(BM_GotoSgemm)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_BlockedNaive(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    Rng rng(3);
    Matrix a(size, size);
    Matrix b(size, size);
    Matrix c(size, size);
    a.fill_random(rng);
    b.fill_random(rng);
    for (auto _ : state) {
        blocked_sgemm(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size, false);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * size * size * size * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BlockedNaive)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_Microkernel(benchmark::State& state)
{
    const MicroKernel& k = best_microkernel();
    const auto kc = static_cast<index_t>(state.range(0));
    Rng rng(4);
    AlignedBuffer<float> a(static_cast<std::size_t>(k.mr * kc));
    AlignedBuffer<float> b(static_cast<std::size_t>(k.nr * kc));
    AlignedBuffer<float> c(static_cast<std::size_t>(k.mr * k.nr), true);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.next_float(-1, 1);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.next_float(-1, 1);

    for (auto _ : state) {
        k.fn(kc, a.data(), b.data(), c.data(), k.nr, true);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * k.mr * k.nr * kc * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
    state.SetLabel(k.name);
}
BENCHMARK(BM_Microkernel)->Arg(64)->Arg(192)->Arg(512);

void BM_CakeDgemm(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    Rng rng(7);
    MatrixD a(size, size);
    MatrixD b(size, size);
    MatrixD c(size, size);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeGemmD gemm(pool(), tuned_options());
    for (auto _ : state) {
        gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * size * size * size * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
    state.counters["max_rel_err"] =
        sampled_max_rel_error(a.data(), b.data(), c.data(), size);
    state.counters["err_bound"] =
        plan_error_bound({size, size, size}, gemm.stats().params,
                         ScheduleKind::kKFirstSerpentine, dtype_f64())
            .rel_bound;
}
BENCHMARK(BM_CakeDgemm)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_CakeInt8(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    Rng rng(8);
    std::vector<std::uint8_t> a(static_cast<std::size_t>(size * size));
    std::vector<std::int8_t> b(static_cast<std::size_t>(size * size));
    std::vector<std::int32_t> c(static_cast<std::size_t>(size * size));
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_below(128));
    for (auto& v : b)
        v = static_cast<std::int8_t>(
            static_cast<int>(rng.next_below(255)) - 127);

    CakeGemmInt8 gemm(pool());
    for (auto _ : state) {
        gemm.multiply(a.data(), size, b.data(), size, c.data(), size, size,
                      size, size);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GOP/s"] = benchmark::Counter(
        2.0 * size * size * size * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
    state.SetLabel(best_microkernel_of<U8S8S32>().name);
}
BENCHMARK(BM_CakeInt8)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_BatchedSmallGemms(benchmark::State& state)
{
    // Attention/DNN-style micro-batch: many small problems per call.
    const auto count = static_cast<index_t>(state.range(0));
    const index_t m = 64, n = 64, k = 64;
    Rng rng(9);
    std::vector<float> a(static_cast<std::size_t>(count * m * k));
    std::vector<float> b(static_cast<std::size_t>(count * k * n));
    std::vector<float> c(static_cast<std::size_t>(count * m * n));
    for (auto& v : a) v = rng.next_float(-1, 1);
    for (auto& v : b) v = rng.next_float(-1, 1);

    for (auto _ : state) {
        cake_gemm_strided_batched(pool(), a.data(), m * k, b.data(), k * n,
                                  c.data(), m * n, m, n, k, count);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * m * n * k * static_cast<double>(count)
            * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_BatchedSmallGemms)->Arg(16)->Arg(64);

void BM_PackA(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    const index_t mr = best_microkernel().mr;
    Rng rng(5);
    Matrix a(size, size);
    a.fill_random(rng);
    AlignedBuffer<float> out(
        static_cast<std::size_t>(packed_a_size(size, size, mr)));
    for (auto _ : state) {
        pack_a_panel(a.data(), size, size, size, mr, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * size * size
                            * static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_PackA)->Arg(512)->Arg(1024);

void BM_PackB(benchmark::State& state)
{
    const auto size = static_cast<index_t>(state.range(0));
    const index_t nr = best_microkernel().nr;
    Rng rng(6);
    Matrix b(size, size);
    b.fill_random(rng);
    AlignedBuffer<float> out(
        static_cast<std::size_t>(packed_b_size(size, size, nr)));
    for (auto _ : state) {
        pack_b_panel(b.data(), size, size, size, nr, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations())
                            * size * size
                            * static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_PackB)->Arg(512)->Arg(1024);

}  // namespace

int main(int argc, char** argv)
{
    const cake::bench::PlanSourceOption plans =
        cake::bench::PlanSourceOption::from_args(argc, argv);
    g_plan_source = plans.get();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
