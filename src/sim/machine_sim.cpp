#include "sim/machine_sim.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/block_plan.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "pack/pack.hpp"
#include "ref/naive_gemm.hpp"
#include "sim/channel.hpp"

namespace cake {
namespace sim {
namespace {

index_t block_extent(index_t idx, index_t blk, index_t total)
{
    return std::min(blk, total - idx * blk);
}

/// Seconds for one core to run one mr x nr x ki micro-kernel call.
double tile_seconds(const MachineSpec& machine, index_t mr, index_t nr,
                    index_t ki)
{
    return 2.0 * static_cast<double>(mr) * static_cast<double>(nr)
        * static_cast<double>(ki) / (machine.core_gflops * 1e9);
}

/// One pipeline macro-step: the packets to fetch before compute can start,
/// the compute duration on the core grid, and the packets to drain after.
struct Step {
    std::vector<Packet> fetch;
    std::vector<Packet> drain;
    double compute_seconds = 0;
    BlockCoord coord;   ///< grid coordinates (functional mode)
};

/// The pipeline is the executor's own plan (build_block_plan over the
/// layered order of `kind`): one step per block, fetching what the plan
/// fetches and draining each column visit where the plan retires it.
std::vector<Step> build_cake_steps(const SimConfig& config,
                                   const CbBlockParams& params,
                                   ScheduleKind kind, index_t k_layers)
{
    const GemmShape& shape = config.shape;
    const MachineSpec& machine = config.machine;
    const BlockPlan plan =
        build_block_plan(block_order(kind, shape, params, k_layers),
                         plan_inputs(shape, params, kind));
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);

    std::vector<Step> steps;
    steps.reserve(plan.steps.size());
    std::uint64_t next_id = 0;
    for (const BlockStep& st : plan.steps) {
        const auto mi = static_cast<std::uint64_t>(st.mi);
        const auto ni = static_cast<std::uint64_t>(st.ni);
        const auto ki = static_cast<std::uint64_t>(st.ki);
        Step step;
        step.coord = st.coord;
        if (st.pack_a) {
            step.fetch.push_back({next_id++, PacketKind::kSurfaceA, st.coord,
                                  mi * ki * elem});
        }
        if (st.b_fresh) {
            step.fetch.push_back({next_id++, PacketKind::kSurfaceB, st.coord,
                                  ki * ni * elem});
        }
        if (st.c_change && st.revisit) {
            // Revisit of a spilled surface (non-K-first ablations, GOTO).
            step.fetch.push_back({next_id++, PacketKind::kPartialC, st.coord,
                                  mi * ni * elem});
        }

        // Busiest core's row band: mc for full blocks; edge blocks split
        // their rows evenly across cores (mirrors the driver).
        const index_t band = std::min<index_t>(
            params.mc,
            round_up(ceil_div(st.mi, static_cast<index_t>(config.p)),
                     params.mr));
        const double core_time = static_cast<double>(ceil_div(band, params.mr))
            * static_cast<double>(ceil_div(st.ni, params.nr))
            * tile_seconds(machine, params.mr, params.nr, st.ki);
        const double int_time =
            model::block_internal_bytes(st.mi, st.ni, st.ki,
                                        {params.mr, params.nr})
            / (machine.internal_bw_at(config.p) * 1e9);
        step.compute_seconds = std::max(core_time, int_time);

        if (st.c_last) {
            // The column's visit ends: its surface drains to DRAM,
            // complete if its K reduction finished (always true under the
            // K-first serpentine), partial otherwise — partial spills are
            // RMW round trips charged at the slower RMW rate.
            step.drain.push_back(
                {next_id++,
                 st.c_partial ? PacketKind::kPartialC : PacketKind::kResultC,
                 st.coord, mi * ni * elem});
        }
        steps.push_back(std::move(step));
    }
    return steps;
}

/// Event-driven execution of one step stream on its own core grid: fetch
/// of step i+1 overlaps compute of step i (double buffering); drains
/// occupy the DRAM channel but do not stall the pipeline. Several
/// Pipelines may share one Channel (multi-tenant mode).
class Pipeline {
public:
    using StepExecutor = std::function<void(const Step&)>;

    Pipeline(EventQueue& queue, Channel& dram, std::vector<Step> steps,
             Timeline* timeline = nullptr, int tenant = 0,
             StepExecutor executor = {})
        : queue_(queue), dram_(dram), steps_(std::move(steps)),
          io_done_(steps_.size(), 0), timeline_(timeline), tenant_(tenant),
          executor_(std::move(executor))
    {
    }

    /// Schedule the pipeline's first fetch at the current simulation time.
    void start()
    {
        if (steps_.empty()) {
            finish_time_ = queue_.now();
            return;
        }
        queue_.schedule(queue_.now(), [this] { issue_io(0); });
    }

    [[nodiscard]] double finish_time() const { return finish_time_; }
    [[nodiscard]] double core_busy_seconds() const
    {
        return core_busy_seconds_;
    }
    [[nodiscard]] const PacketCounters& packets() const { return packets_; }
    [[nodiscard]] index_t steps() const
    {
        return static_cast<index_t>(steps_.size());
    }

private:
    void issue_io(std::size_t i)
    {
        if (i >= steps_.size()) return;
        if (steps_[i].fetch.empty()) {
            io_done_[i] = 1;
            try_start_compute(i);
            return;
        }
        const std::size_t last_pkt = steps_[i].fetch.size() - 1;
        for (std::size_t j = 0; j < steps_[i].fetch.size(); ++j) {
            const Packet& pkt = steps_[i].fetch[j];
            packets_.record(pkt);
            Channel::Interval iv;
            if (j == last_pkt) {
                iv = dram_.transfer(queue_.now(), pkt, [this, i](double) {
                    io_done_[i] = 1;
                    try_start_compute(i);
                });
            } else {
                iv = dram_.transfer(queue_.now(), pkt);
            }
            if (timeline_ != nullptr) {
                timeline_->record({SliceKind::kFetch, tenant_,
                                   static_cast<std::int64_t>(i), pkt.kind,
                                   iv.start, iv.end});
            }
        }
    }

    void try_start_compute(std::size_t i)
    {
        if (i != next_compute_ || core_busy_ || io_done_[i] == 0) return;
        core_busy_ = true;
        const double duration = steps_[i].compute_seconds;
        core_busy_seconds_ += duration;
        // Double buffering: the next step's surfaces start streaming as
        // soon as this step's compute begins (its buffers are now free).
        issue_io(i + 1);
        if (timeline_ != nullptr) {
            timeline_->record({SliceKind::kCompute, tenant_,
                               static_cast<std::int64_t>(i),
                               PacketKind::kSurfaceA, queue_.now(),
                               queue_.now() + duration});
        }
        queue_.schedule(queue_.now() + duration, [this, i] {
            core_busy_ = false;
            // Functional payload: the block's real math runs exactly when
            // the simulated computation completes.
            if (executor_) executor_(steps_[i]);
            double drained = queue_.now();
            for (const Packet& pkt : steps_[i].drain) {
                packets_.record(pkt);
                const Channel::Interval iv =
                    dram_.transfer(queue_.now(), pkt);
                drained = std::max(drained, iv.end);
                if (timeline_ != nullptr) {
                    timeline_->record({SliceKind::kDrain, tenant_,
                                       static_cast<std::int64_t>(i),
                                       pkt.kind, iv.start, iv.end});
                }
            }
            ++next_compute_;
            if (next_compute_ < steps_.size()) {
                try_start_compute(next_compute_);
            } else {
                finish_time_ = drained;
            }
        });
    }

    EventQueue& queue_;
    Channel& dram_;
    std::vector<Step> steps_;
    std::vector<char> io_done_;
    std::size_t next_compute_ = 0;
    bool core_busy_ = false;
    double core_busy_seconds_ = 0;
    double finish_time_ = 0;
    PacketCounters packets_;
    Timeline* timeline_ = nullptr;
    int tenant_ = 0;
    StepExecutor executor_;
};

SimResult run_pipeline(const SimConfig& config, std::vector<Step> steps,
                       Pipeline::StepExecutor executor = {})
{
    SimResult result;
    result.steps = static_cast<index_t>(steps.size());
    if (steps.empty()) return result;

    EventQueue queue;
    Channel dram(queue, config.machine.dram_bw_gbs * 1e9, "dram",
                 config.machine.rmw_bw_gbs() * 1e9);
    Pipeline pipeline(queue, dram, std::move(steps), config.timeline, 0,
                      std::move(executor));
    pipeline.start();
    const double end = queue.run_all();
    // The channel may still be draining the final result packets.
    const double finish = std::max({end, dram.busy_until(),
                                    pipeline.finish_time()});

    result.seconds = finish;
    result.gflops = config.shape.flops() / finish / 1e9;
    result.packets = pipeline.packets();
    result.dram_bytes = result.packets.total_bytes();
    result.avg_dram_bw_gbs =
        static_cast<double>(result.dram_bytes) / finish / 1e9;
    result.dram_busy_frac = dram.busy_seconds() / finish;
    result.core_busy_frac = pipeline.core_busy_seconds() / finish;
    return result;
}

/// The algorithm only selects the plan: CAKE's solved blocks under the
/// configured schedule and K layers, or GOTO's plan (goto_plan_params,
/// ScheduleKind::kGoto, one layer), the one the executor runs for GOTO.
std::vector<Step> build_steps(const SimConfig& config, SimResult& result)
{
    const model::KernelShape& kernel = config.kernel;
    if (config.algorithm == Algorithm::kGoto) {
        result.params =
            goto_plan_params(config.machine, config.p, kernel.mr, kernel.nr);
        return build_cake_steps(config, result.params, ScheduleKind::kGoto,
                                /*k_layers=*/1);
    }
    result.params = compute_cb_block(config.machine, config.p, kernel.mr,
                                     kernel.nr, config.topts);
    return build_cake_steps(config, result.params, config.schedule,
                            config.k_layers);
}

}  // namespace

SimResult simulate(const SimConfig& config)
{
    CAKE_CHECK(config.p >= 1);
    CAKE_CHECK(config.shape.m > 0 && config.shape.n > 0 && config.shape.k > 0);

    SimResult result;
    std::vector<Step> steps = build_steps(config, result);
    const CbBlockParams params = result.params;

    if (config.validate_data) {
        // Real operands travel with the simulation: each compute event
        // executes its block's partial product, as in the paper's §6.2
        // simulator ("to validate the correctness of the CB block design
        // and execution schedule").
        Rng rng(config.validate_seed);
        const GemmShape& shape = config.shape;
        Matrix a(shape.m, shape.k);
        Matrix b(shape.k, shape.n);
        a.fill_random(rng);
        b.fill_random(rng);
        Matrix c(shape.m, shape.n);

        auto executor = [&, params](const Step& step) {
            const index_t m0 = step.coord.m * params.m_blk;
            const index_t n0 = step.coord.n * params.n_blk;
            const index_t k0 = step.coord.k * params.k_blk;
            const index_t mi = std::min(params.m_blk, shape.m - m0);
            const index_t ni = std::min(params.n_blk, shape.n - n0);
            const index_t ki = std::min(params.k_blk, shape.k - k0);
            naive_sgemm(a.data() + m0 * shape.k + k0, shape.k,
                        b.data() + k0 * shape.n + n0, shape.n,
                        c.data() + m0 * shape.n + n0, shape.n, mi, ni, ki,
                        /*accumulate=*/true);
        };
        result = run_pipeline(config, std::move(steps), executor);
        result.params = params;
        result.max_abs_error = max_abs_diff(c, oracle_gemm(a, b));
        return result;
    }

    result = run_pipeline(config, std::move(steps));
    result.params = params;
    return result;
}

MultiTenantResult simulate_shared_dram(const std::vector<SimConfig>& configs,
                                       Timeline* timeline)
{
    CAKE_CHECK(!configs.empty());
    for (const SimConfig& config : configs) {
        CAKE_CHECK(config.p >= 1);
        CAKE_CHECK_MSG(config.machine.name == configs.front().machine.name,
                       "all tenants must share one machine");
    }

    EventQueue queue;
    Channel dram(queue, configs.front().machine.dram_bw_gbs * 1e9,
                 "dram-shared", configs.front().machine.rmw_bw_gbs() * 1e9);

    MultiTenantResult result;
    result.tenants.resize(configs.size());
    std::vector<std::unique_ptr<Pipeline>> pipelines;
    for (std::size_t t = 0; t < configs.size(); ++t) {
        std::vector<Step> steps =
            build_steps(configs[t], result.tenants[t]);
        pipelines.push_back(std::make_unique<Pipeline>(
            queue, dram, std::move(steps), timeline, static_cast<int>(t)));
    }
    for (auto& p : pipelines) p->start();
    queue.run_all();

    double total_flops = 0;
    for (std::size_t t = 0; t < configs.size(); ++t) {
        SimResult& tenant = result.tenants[t];
        const double finish =
            std::max(pipelines[t]->finish_time(), 1e-12);
        tenant.seconds = finish;
        tenant.steps = pipelines[t]->steps();
        tenant.packets = pipelines[t]->packets();
        tenant.dram_bytes = tenant.packets.total_bytes();
        tenant.gflops = configs[t].shape.flops() / finish / 1e9;
        tenant.avg_dram_bw_gbs =
            static_cast<double>(tenant.dram_bytes) / finish / 1e9;
        tenant.core_busy_frac =
            pipelines[t]->core_busy_seconds() / finish;
        result.makespan = std::max(result.makespan, finish);
        total_flops += configs[t].shape.flops();
    }
    result.aggregate_gflops = total_flops / result.makespan / 1e9;
    result.dram_busy_frac = dram.busy_seconds() / result.makespan;
    return result;
}

double validate_schedule_numerics(const GemmShape& shape,
                                  const CbBlockParams& params,
                                  ScheduleKind kind, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix a(shape.m, shape.k);
    Matrix b(shape.k, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    Matrix c(shape.m, shape.n);  // zero-initialised

    for (const BlockCoord& coord : block_order(kind, shape, params)) {
        const index_t mi = block_extent(coord.m, params.m_blk, shape.m);
        const index_t ni = block_extent(coord.n, params.n_blk, shape.n);
        const index_t ki = block_extent(coord.k, params.k_blk, shape.k);
        const index_t m0 = coord.m * params.m_blk;
        const index_t n0 = coord.n * params.n_blk;
        const index_t k0 = coord.k * params.k_blk;
        naive_sgemm(a.data() + m0 * shape.k + k0, shape.k,
                    b.data() + k0 * shape.n + n0, shape.n,
                    c.data() + m0 * shape.n + n0, shape.n, mi, ni, ki,
                    /*accumulate=*/true);
    }
    return max_abs_diff(c, oracle_gemm(a, b));
}

}  // namespace sim
}  // namespace cake
