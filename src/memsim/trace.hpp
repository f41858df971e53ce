// Memory-access trace generation: walks the CAKE executor's block loop
// (any schedule kind and its carry-over rule, the same packing and
// micro-kernel tile order), emitting the address stream each worker core
// would issue, and replays it through the cache-hierarchy simulator. The
// GOTO baseline is the executor's GOTO plan (goto_plan_params under
// ScheduleKind::kGoto), so the same walk traces it. This reproduces what
// the paper measures with PMU counters: per-level hits, DRAM accesses and
// stall attribution (Fig. 7) and average DRAM bandwidth (Figs. 10a-12a).
#pragma once

#include <cstdint>

#include "core/schedule.hpp"
#include "core/tiling.hpp"
#include "memsim/cache_sim.hpp"

namespace cake {
namespace memsim {

/// Virtual base addresses of the matrices and pack panels. Regions are
/// spaced 4 GiB apart so they never alias.
struct AddressMap {
    std::uint64_t a = 1ULL << 32;
    std::uint64_t b = 2ULL << 32;
    std::uint64_t c = 3ULL << 32;
    std::uint64_t pack_a = 4ULL << 32;
    std::uint64_t pack_b = 5ULL << 32;
};

/// Receives the generated access stream.
class TraceSink {
public:
    virtual ~TraceSink() = default;
    virtual void access(int core, std::uint64_t addr, std::uint32_t bytes,
                        bool write) = 0;
};

/// Sink that feeds the cache-hierarchy simulator.
class HierarchySink final : public TraceSink {
public:
    explicit HierarchySink(HierarchySim& sim) : sim_(sim) {}
    void access(int core, std::uint64_t addr, std::uint32_t bytes,
                bool write) override
    {
        sim_.access(core, addr, bytes, write);
    }

private:
    HierarchySim& sim_;
};

/// Emit the access stream of a CAKE run with beta = 0 (packing, and
/// per-core micro-kernel sweeps that compute C in place: the first K block
/// of a column's first visit overwrites its user-C rows, every later block
/// reads them back and accumulates). Every access is scaled by
/// params.elem_bytes, so the trace is dtype-width-aware.
void trace_cake(const GemmShape& shape, const CbBlockParams& params,
                ScheduleKind kind, TraceSink& sink,
                const AddressMap& map = {});

/// Emit the access stream of an UNPACKED inner-product GEMM (i-j-k loop
/// reading a column of B per output element). The column walk strides
/// shape.n elements, touching a new page per element once the row size
/// exceeds a page — the TLB-thrashing pattern that motivated packing in
/// the GOTO lineage (ref [12]). Single core; intended for TLB studies.
void trace_naive_ijk(const GemmShape& shape, TraceSink& sink,
                     const AddressMap& map = {});

/// End-to-end replay result.
struct TraceReport {
    MemCounters counters;
    StallBreakdown stalls;
    std::size_t line_bytes = 64;

    /// Bytes exchanged with external memory (fills + writebacks).
    [[nodiscard]] double dram_gb() const
    {
        return static_cast<double>(counters.dram_bytes(line_bytes)) / 1e9;
    }
};

/// Build a hierarchy for `machine`/`p`, trace a CAKE run, replay, report.
TraceReport simulate_cake_memory(const MachineSpec& machine, int p,
                                 const GemmShape& shape,
                                 const TilingOptions& topts = {},
                                 ScheduleKind kind =
                                     ScheduleKind::kKFirstSerpentine);

/// Same for the GOTO baseline: trace_cake of the GOTO plan
/// (goto_plan_params for a 6x16 kernel, ScheduleKind::kGoto), the stream
/// the executor issues for GOTO.
TraceReport simulate_goto_memory(const MachineSpec& machine, int p,
                                 const GemmShape& shape);

}  // namespace memsim
}  // namespace cake
