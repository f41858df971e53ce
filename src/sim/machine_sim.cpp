#include "sim/machine_sim.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
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

/// Seconds for one core to run one mr x nr x ki micro-kernel call.
double tile_seconds(const MachineSpec& machine, index_t mr, index_t nr,
                    index_t ki)
{
    return 2.0 * static_cast<double>(mr) * static_cast<double>(nr)
        * static_cast<double>(ki) / (machine.core_gflops * 1e9);
}

/// Random A and B of one shape with a zeroed C: the functional payload
/// that blocks accumulate into, checked against a float64 oracle.
struct Operands {
    Matrix a, b, c;

    Operands(const GemmShape& shape, std::uint64_t seed)
        : a(shape.m, shape.k), b(shape.k, shape.n), c(shape.m, shape.n)
    {
        Rng rng(seed);
        a.fill_random(rng);
        b.fill_random(rng);
    }

    /// Add block `st`'s partial product into its tile of C.
    void accumulate(const BlockStep& st)
    {
        naive_sgemm(a.data() + st.m0 * a.cols() + st.k0, a.cols(),
                    b.data() + st.k0 * b.cols() + st.n0, b.cols(),
                    c.data() + st.m0 * c.cols() + st.n0, c.cols(), st.mi,
                    st.ni, st.ki, /*accumulate=*/true);
    }

    [[nodiscard]] double error() const
    {
        return max_abs_diff(c, oracle_gemm(a, b));
    }
};

/// One plan step as the simulator times it: the surfaces the phase that
/// packs it fetches, the reload and core-grid time of the phase that
/// computes it, and the drain issued when that compute ends.
struct Step {
    BlockStep block;
    std::vector<Packet> fetch;   ///< A/B surfaces (pack phase)
    std::vector<Packet> reload;  ///< a revisit's partial C (compute phase)
    std::vector<Packet> drain;   ///< the column's write-back
    double compute_seconds = 0;
};

/// The executor's plan in simulator terms: its steps and its phases.
struct SimPlan {
    std::vector<Step> steps;
    std::vector<BlockPhase> phases;
};

/// The executor's own plan (build_block_plan over the layered order of
/// `kind`, double-buffered iff `overlap`): each step fetches what the plan
/// fetches and drains each column visit where the plan retires it.
SimPlan build_sim_plan(const SimConfig& config, const CbBlockParams& params,
                       ScheduleKind kind, index_t k_layers, bool overlap)
{
    const GemmShape& shape = config.shape;
    const MachineSpec& machine = config.machine;
    BlockPlanInputs in = plan_inputs(shape, params, kind);
    in.double_buffer = overlap;
    BlockPlan plan =
        build_block_plan(block_order(kind, shape, params, k_layers), in);
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);

    SimPlan sim{{}, std::move(plan.phases)};
    sim.steps.reserve(plan.steps.size());
    std::uint64_t next_id = 0;
    for (const BlockStep& st : plan.steps) {
        const auto mi = static_cast<std::uint64_t>(st.mi);
        const auto ni = static_cast<std::uint64_t>(st.ni);
        const auto ki = static_cast<std::uint64_t>(st.ki);
        Step step;
        step.block = st;
        if (st.pack_a) {
            step.fetch.push_back({next_id++, PacketKind::kSurfaceA, st.coord,
                                  mi * ki * elem});
        }
        if (st.b_fresh) {
            step.fetch.push_back({next_id++, PacketKind::kSurfaceB, st.coord,
                                  ki * ni * elem});
        }
        if (st.c_change && st.revisit) {
            // Revisit of a spilled surface (non-K-first ablations, GOTO):
            // the compute items accumulate straight into user C, so the
            // reload belongs to the compute step, not the pack step.
            step.reload.push_back({next_id++, PacketKind::kPartialC,
                                   st.coord, mi * ni * elem});
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
        sim.steps.push_back(std::move(step));
    }
    return sim;
}

/// Event-driven run of one plan on its own core grid, one BlockPhase at a
/// time. A phase issues its pack step's surface fetches, its compute
/// step's reload and its compute together, and ends, at the team's
/// barrier, when all are done: fetch + compute when the plan packs in
/// phases of their own (overlap off), max(fetch, compute) when it packs
/// step t + 1 beside compute(t). Drains are issued at compute end and take
/// channel time but never stall the next phase. Several Pipelines may
/// share one Channel (multi-tenant mode).
class Pipeline {
public:
    using StepExecutor = std::function<void(const BlockStep&)>;

    Pipeline(EventQueue& queue, Channel& dram, SimPlan plan,
             Timeline* timeline, int tenant, StepExecutor executor)
        : queue_(queue), dram_(dram), plan_(std::move(plan)),
          timeline_(timeline), tenant_(tenant),
          executor_(std::move(executor))
    {
    }

    /// Schedule the first phase at the current simulation time.
    void start()
    {
        queue_.schedule(queue_.now(), [this] { run_phase(0); });
    }

    [[nodiscard]] double finish_time() const { return finish_time_; }
    [[nodiscard]] double core_busy_seconds() const
    {
        return core_busy_seconds_;
    }
    [[nodiscard]] const PacketCounters& packets() const { return packets_; }
    [[nodiscard]] index_t steps() const
    {
        return static_cast<index_t>(plan_.steps.size());
    }

private:
    const Step& step(index_t i) const
    {
        return plan_.steps[static_cast<std::size_t>(i)];
    }

    /// Put step `i`'s `pkts` on the channel now; returns when the last
    /// one lands (FIFO service fixes that at issue).
    double transfer(const std::vector<Packet>& pkts, SliceKind kind,
                    index_t i)
    {
        double end = queue_.now();
        for (const Packet& pkt : pkts) {
            packets_.record(pkt);
            const Channel::Interval iv = dram_.transfer(queue_.now(), pkt);
            end = std::max(end, iv.end);
            if (timeline_ != nullptr) {
                timeline_->record({kind, tenant_, i, pkt.kind, iv.start,
                                   iv.end});
            }
        }
        return end;
    }

    void run_phase(std::size_t ph)
    {
        const double now = queue_.now();
        if (ph == plan_.phases.size()) {
            finish_time_ = std::max(now, drained_);
            return;
        }
        const BlockPhase& phase = plan_.phases[ph];
        double end = now;
        if (phase.pack >= 0) {
            end = transfer(step(phase.pack).fetch, SliceKind::kFetch,
                           phase.pack);
        }
        if (phase.compute >= 0) {
            const index_t c = phase.compute;
            const double duration = step(c).compute_seconds;
            end = std::max({end, now + duration,
                            transfer(step(c).reload, SliceKind::kFetch, c)});
            core_busy_seconds_ += duration;
            if (timeline_ != nullptr) {
                timeline_->record({SliceKind::kCompute, tenant_, c,
                                   PacketKind::kSurfaceA, now,
                                   now + duration});
            }
            queue_.schedule(now + duration, [this, c] {
                // Functional payload: the block's real math runs exactly
                // when the simulated computation completes.
                if (executor_) executor_(step(c).block);
                drained_ = std::max(
                    drained_, transfer(step(c).drain, SliceKind::kDrain, c));
            });
        }
        queue_.schedule(end, [this, ph] { run_phase(ph + 1); });
    }

    EventQueue& queue_;
    Channel& dram_;
    SimPlan plan_;
    double core_busy_seconds_ = 0;
    double drained_ = 0;
    double finish_time_ = 0;
    PacketCounters packets_;
    Timeline* timeline_ = nullptr;
    int tenant_ = 0;
    StepExecutor executor_;
};

/// The algorithm only selects the plan: CAKE's solved blocks under the
/// configured schedule and K layers, overlap on; or GOTO's plan
/// (goto_plan_params, ScheduleKind::kGoto, one layer), overlap off — the
/// plans the executor runs for each.
SimPlan select_plan(const SimConfig& config, SimResult& result)
{
    const model::KernelShape& kernel = config.kernel;
    if (config.algorithm == Algorithm::kGoto) {
        result.params =
            goto_plan_params(config.machine, config.p, kernel.mr, kernel.nr);
        return build_sim_plan(config, result.params, ScheduleKind::kGoto,
                              /*k_layers=*/1, /*overlap=*/false);
    }
    result.params = compute_cb_block(config.machine, config.p, kernel.mr,
                                     kernel.nr, config.topts);
    return build_sim_plan(config, result.params, config.schedule,
                          config.k_layers, /*overlap=*/true);
}

/// Run every tenant's plan on its own core grid against one DRAM channel
/// and fill each tenant's result over its own span. `executor` (functional
/// mode) sees every tenant's computed blocks.
MultiTenantResult run_tenants(const std::vector<SimConfig>& configs,
                              Timeline* timeline,
                              const Pipeline::StepExecutor& executor = {})
{
    CAKE_CHECK(!configs.empty());
    const MachineSpec& machine = configs.front().machine;
    for (const SimConfig& config : configs) {
        CAKE_CHECK(config.p >= 1);
        CAKE_CHECK(config.shape.m > 0 && config.shape.n > 0
                   && config.shape.k > 0);
        CAKE_CHECK_MSG(config.machine.name == machine.name,
                       "all tenants must share one machine");
    }

    EventQueue queue;
    Channel dram(queue, machine.dram_bw_gbs * 1e9, "dram",
                 machine.rmw_bw_gbs() * 1e9);
    MultiTenantResult result;
    result.tenants.resize(configs.size());
    std::vector<std::unique_ptr<Pipeline>> pipelines;
    for (std::size_t t = 0; t < configs.size(); ++t) {
        pipelines.push_back(std::make_unique<Pipeline>(
            queue, dram, select_plan(configs[t], result.tenants[t]),
            timeline, static_cast<int>(t), executor));
    }
    for (auto& p : pipelines) p->start();
    queue.run_all();

    double total_flops = 0;
    for (std::size_t t = 0; t < configs.size(); ++t) {
        SimResult& tenant = result.tenants[t];
        const Pipeline& pipeline = *pipelines[t];
        const double finish = std::max(pipeline.finish_time(), 1e-12);
        tenant.seconds = finish;
        tenant.steps = pipeline.steps();
        tenant.packets = pipeline.packets();
        tenant.dram_bytes = tenant.packets.total_bytes();
        tenant.gflops = configs[t].shape.flops() / finish / 1e9;
        tenant.avg_dram_bw_gbs =
            static_cast<double>(tenant.dram_bytes) / finish / 1e9;
        tenant.core_busy_frac = pipeline.core_busy_seconds() / finish;
        result.makespan = std::max(result.makespan, finish);
        total_flops += configs[t].shape.flops();
    }
    result.aggregate_gflops = total_flops / result.makespan / 1e9;
    result.dram_busy_frac = dram.busy_seconds() / result.makespan;
    return result;
}

}  // namespace

SimResult simulate(const SimConfig& config)
{
    // Functional mode: real operands travel with the simulation and each
    // compute event executes its block's partial product, as in the
    // paper's §6.2 simulator ("to validate the correctness of the CB block
    // design and execution schedule").
    std::optional<Operands> ops;
    Pipeline::StepExecutor executor;
    if (config.validate_data) {
        ops.emplace(config.shape, config.validate_seed);
        executor = [&ops](const BlockStep& st) { ops->accumulate(st); };
    }
    const MultiTenantResult run =
        run_tenants({config}, config.timeline, executor);
    SimResult result = run.tenants.front();
    result.dram_busy_frac = run.dram_busy_frac;
    if (ops) result.max_abs_error = ops->error();
    return result;
}

MultiTenantResult simulate_shared_dram(const std::vector<SimConfig>& configs,
                                       Timeline* timeline)
{
    return run_tenants(configs, timeline);
}

double validate_schedule_numerics(const GemmShape& shape,
                                  const CbBlockParams& params,
                                  ScheduleKind kind, std::uint64_t seed)
{
    Operands ops(shape, seed);
    const BlockPlan plan = build_block_plan(block_order(kind, shape, params),
                                            plan_inputs(shape, params, kind));
    for (const BlockStep& st : plan.steps) ops.accumulate(st);
    return ops.error();
}

}  // namespace sim
}  // namespace cake
