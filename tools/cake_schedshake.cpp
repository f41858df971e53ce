// cake_schedshake — deterministic schedule fuzzer for the CB-block
// executor.
//
// For each (shape, seed) pair this tool arms the schedshake perturbation
// layer (src/analysis/schedshake.hpp) with the seed, runs the executor
// with pack/compute overlap on under block schedule
// all_schedule_kinds()[seed % n] — so a sweep also fuzzes the beta = 1
// write-backs of the schedules that revisit a C column — and checks that
// the result is bit-exact against an unperturbed overlap-off run of the
// same schedule and — in CAKE_RACECHECK builds — that the happens-before
// auditor saw no ownership violation. --f64 and
// --i8 fuzz the double-precision and u8 x s8 -> s32 instantiations of the
// same executor. Because the perturbation streams are
// pure functions of (seed, team tid), any failure replays exactly; the
// tool prints the one-line replay command for the failing point.
//
// Exit codes: 0 clean sweep, 1 usage error, 66 race/mismatch detected
// (same convention as tools/run_tsan.sh: a real concurrency finding must
// not be confusable with an ordinary failure).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/racecheck.hpp"
#include "analysis/schedshake.hpp"
#include "cli.hpp"
#include "common/checked.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm_int8.hpp"
#include "kernel/registry.hpp"
#include "threading/thread_pool.hpp"

namespace {

struct Shape {
    std::string name;
    cake::index_t m = 0, n = 0, k = 0;
};

struct Config {
    std::vector<std::uint64_t> seeds;
    std::vector<Shape> shapes;
    int p = 4;
    int intensity = 60;
    bool f64 = false;
    bool i8 = false;
};

/// The three schedule classes the paper evaluates (§5): near-square, one
/// dimension dominant (skewed), and a thin panel. Sizes are chosen so the
/// forced tiny mc below yields a multi-block CB grid in every class.
Shape named_shape(const std::string& name)
{
    if (name == "square") return {"square", 96, 96, 96};
    if (name == "skewed") return {"skewed", 256, 32, 64};
    if (name == "panel") return {"panel", 16, 256, 128};
    return {"", 0, 0, 0};
}

constexpr const char* kUsage =
    "usage: cake_schedshake [--seeds N | --seed S]\n"
    "                       [--shapes a,b,c | --shape MxNxK]\n"
    "                       [--p P] [--intensity PCT] [--f64 | --i8]\n"
    "  --seeds N        fuzz seeds 0..N-1 (default 16); seed S runs\n"
    "                   schedule S mod (number of schedule kinds)\n"
    "  --seed S         fuzz exactly seed S (replay mode)\n"
    "  --shapes LIST    comma list of square,skewed,panel (default all)\n"
    "  --shape MxNxK    one explicit GEMM shape\n"
    "  --p P            team width (default 4)\n"
    "  --intensity PCT  perturbation probability per point (default 60)\n"
    "  --f64            fuzz the double-precision driver\n"
    "  --i8             fuzz the u8 x s8 -> s32 driver\n";

void throwing_trap(const char* kind, const std::string& message)
{
    throw cake::CheckedError(std::string(kind) + ": " + message);
}

/// Seeded operand values: uniform in [-1, 1) for float families; u8 A in
/// [0, 127] and s8 B in [-127, 127] (the range the int8 kernels are exact
/// on).
template <typename E>
std::vector<E> random_operand(cake::index_t size, cake::Rng& rng)
{
    std::vector<E> v(static_cast<std::size_t>(size));
    for (E& x : v) {
        if constexpr (std::is_floating_point_v<E>) {
            x = E(-1) + static_cast<E>(rng.next_double()) * E(2);
        } else if constexpr (std::is_unsigned_v<E>) {
            x = static_cast<E>(rng.next_below(128));
        } else {
            x = static_cast<E>(static_cast<int>(rng.next_below(255)) - 127);
        }
    }
    return v;
}

template <typename T>
class SweepRunner {
public:
    using Gemm = cake::CakeGemmT<T>;
    using C = typename Gemm::C;

    SweepRunner(const Config& cfg, cake::ThreadPool& pool)
        : cfg_(cfg), pool_(pool)
    {
        if constexpr (std::is_same_v<T, cake::U8S8S32>) {
            options_.mc = cake::best_microkernel_of<cake::U8S8S32>().mr * 2;
        } else {
            options_.mc = cake::best_microkernel_of<T>().mr * 2;
        }
        options_.alpha = 1.0;
        options_.p = cfg.p;
    }

    /// Returns true iff every (seed, shape) run was bit-exact and
    /// race-clean.
    bool run()
    {
        bool clean = true;
        for (const Shape& shape : cfg_.shapes) {
            clean = run_shape(shape) && clean;
        }
        return clean;
    }

private:
    bool run_shape(const Shape& shape)
    {
        cake::Rng rng(0xCAFE0000ull + static_cast<std::uint64_t>(shape.m)
                      + 131ull * static_cast<std::uint64_t>(shape.n)
                      + 17161ull * static_cast<std::uint64_t>(shape.k));
        const auto a = random_operand<typename Gemm::A>(shape.m * shape.k, rng);
        const auto b = random_operand<typename Gemm::B>(shape.k * shape.n, rng);

        // Overlap-off reference per schedule, perturbation disarmed: the
        // overlapped pipeline promises bit-exactness against it (same
        // kernels, same K accumulation order), so any divergence under
        // fuzzing is an ordering bug, not roundoff.
        const std::vector<cake::ScheduleKind>& kinds =
            cake::all_schedule_kinds();
        std::vector<std::vector<C>> refs(kinds.size());

        bool clean = true;
        std::vector<C> c(static_cast<std::size_t>(shape.m * shape.n));
        for (const std::uint64_t seed : cfg_.seeds) {
            const std::size_t kind_at = seed % kinds.size();
            const cake::ScheduleKind kind = kinds[kind_at];
            std::vector<C>& c_ref = refs[kind_at];
            if (c_ref.empty()) {
                c_ref.resize(c.size());
                multiply(kind, cake::CakeExec::kSerial, a, b, c_ref, shape);
            }
            const std::uint64_t races_before = cake::racecheck::race_count();
            bool failed = false;
            std::string what;
            try {
                cake::schedshake::configure(seed, cfg_.intensity);
                std::fill(c.begin(), c.end(), C(0));
                multiply(kind, cake::CakeExec::kPipelined, a, b, c, shape);
            } catch (const std::exception& e) {
                failed = true;
                what = e.what();
            }
            cake::schedshake::disable();
            if (!failed && cake::racecheck::race_count() != races_before) {
                failed = true;
                what = "racecheck reported a violation (non-throwing path)";
            }
            if (!failed
                && std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(C))
                    != 0) {
                failed = true;
                what = "pipelined result not bit-exact vs serial";
            }
            if (failed) {
                clean = false;
                std::fprintf(stderr,
                             "FAIL shape=%s (%lldx%lldx%lld) seed=%llu: %s\n",
                             shape.name.c_str(),
                             static_cast<long long>(shape.m),
                             static_cast<long long>(shape.n),
                             static_cast<long long>(shape.k),
                             static_cast<unsigned long long>(seed),
                             what.c_str());
                std::fprintf(stderr,
                             "replay: cake_schedshake --seed %llu "
                             "--shape %lldx%lldx%lld --p %d --intensity %d%s"
                             "  # schedule %s\n",
                             static_cast<unsigned long long>(seed),
                             static_cast<long long>(shape.m),
                             static_cast<long long>(shape.n),
                             static_cast<long long>(shape.k), cfg_.p,
                             cfg_.intensity,
                             cfg_.f64 ? " --f64" : cfg_.i8 ? " --i8" : "",
                             cake::schedule_kind_name(kind));
            }
        }
        if (clean) {
            std::printf("shape %-6s (%lldx%lldx%lld): %zu seeds clean\n",
                        shape.name.c_str(), static_cast<long long>(shape.m),
                        static_cast<long long>(shape.n),
                        static_cast<long long>(shape.k), cfg_.seeds.size());
        }
        return clean;
    }

    void multiply(cake::ScheduleKind kind, cake::CakeExec exec,
                  const std::vector<typename Gemm::A>& a,
                  const std::vector<typename Gemm::B>& b, std::vector<C>& c,
                  const Shape& shape)
    {
        cake::CakeOptions options = options_;
        options.schedule = kind;
        options.exec = exec;
        Gemm gemm(pool_, options);
        gemm.multiply(a.data(), shape.k, b.data(), shape.n, c.data(),
                      shape.n, shape.m, shape.n, shape.k);
    }

    Config cfg_;
    cake::ThreadPool& pool_;
    cake::CakeOptions options_;
};

}  // namespace

int main(int argc, char** argv)
{
    const cake::cli::Args cli{argc, argv, "cake_schedshake", kUsage,
                              /*usage_exit=*/1};
    Config cfg;
    std::vector<std::string> shape_names;
    Shape explicit_shape;
    bool have_explicit_shape = false;
    cake::index_t n_seeds = 16;
    cake::index_t single_seed = -1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seeds") {
            n_seeds = cli.index(cli.next(i, "--seeds"), "--seeds");
        } else if (arg == "--seed") {
            single_seed = cli.index(cli.next(i, "--seed"), "--seed", 0);
        } else if (arg == "--shapes") {
            const std::string list = cli.next(i, "--shapes");
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = list.find(',', pos);
                shape_names.push_back(list.substr(
                    pos, comma == std::string::npos ? comma : comma - pos));
                pos = comma == std::string::npos ? comma : comma + 1;
            }
        } else if (arg == "--shape") {
            const cake::GemmShape s = cli.shape(cli.next(i, "--shape"));
            explicit_shape = {"explicit", s.m, s.n, s.k};
            have_explicit_shape = true;
        } else if (arg == "--p") {
            cfg.p = cli.integer(cli.next(i, "--p"), "--p");
        } else if (arg == "--intensity") {
            cfg.intensity =
                cli.integer(cli.next(i, "--intensity"), "--intensity", 0);
        } else if (arg == "--f64") {
            cfg.f64 = true;
        } else if (arg == "--i8") {
            cfg.i8 = true;
        } else {
            cli.error("unknown argument '" + arg + "'");
        }
    }
    if (cfg.intensity > 100) cli.error("--intensity expects 0..100");
    if (cfg.f64 && cfg.i8) cli.error("--f64 and --i8 are exclusive");

    if (single_seed >= 0) {
        cfg.seeds.push_back(static_cast<std::uint64_t>(single_seed));
    } else {
        for (cake::index_t s = 0; s < n_seeds; ++s) {
            cfg.seeds.push_back(static_cast<std::uint64_t>(s));
        }
    }
    if (have_explicit_shape) {
        cfg.shapes.push_back(explicit_shape);
    }
    if (shape_names.empty() && !have_explicit_shape) {
        shape_names = {"square", "skewed", "panel"};
    }
    for (const std::string& name : shape_names) {
        const Shape shape = named_shape(name);
        if (shape.name.empty()) {
            cli.error("unknown shape class '" + name + "'");
        }
        cfg.shapes.push_back(shape);
    }

    if (!cake::racecheck::enabled()) {
        std::printf(
            "note: built without CAKE_RACECHECK — happens-before auditing "
            "and schedule perturbation are disabled; running the bit-exact "
            "pipelined-vs-serial sweep only.\n");
    }
    // A race diagnostic must unwind as an exception (caught per seed and
    // reported with its replay line) instead of aborting the whole sweep.
    cake::checked::set_trap_handler(&throwing_trap);

    cake::ThreadPool pool(cfg.p);
    bool clean = false;
    if (cfg.f64) {
        clean = SweepRunner<double>(cfg, pool).run();
    } else if (cfg.i8) {
        clean = SweepRunner<cake::U8S8S32>(cfg, pool).run();
    } else {
        clean = SweepRunner<float>(cfg, pool).run();
    }
    cake::checked::set_trap_handler(nullptr);
    if (!clean) return 66;
    std::printf("schedshake sweep clean: %zu seed(s) x %zu shape(s), "
                "intensity %d%%, p=%d%s\n",
                cfg.seeds.size(), cfg.shapes.size(), cfg.intensity, cfg.p,
                cake::racecheck::enabled() ? "" : " (auditor disabled)");
    return 0;
}
