// Schedule IR: a declarative record of every tile operation a GEMM
// executor performs — its barrier-delimited phase, the buffer generations
// it reads and writes, and the DRAM traffic it models — extracted WITHOUT
// executing a single FMA.
//
// The extractor replays the exact decision data the runtime consumes:
// block_order + build_block_plan (src/core/block_plan.cpp), the same
// BlockPlan CakeGemmT's one executor runs for every kernel family and
// every schedule kind (GOTO is ScheduleKind::kGoto run with overlap off),
// including double-buffer slot assignment, the work items of each step
// and the team's phase list: one IR phase per BlockPlan::phases entry.
// A property proven of this IR is therefore a property of the schedule
// the runtime executes, for ALL interleavings — not just the ones a
// fuzzer happened to run. The verifier lives in src/analysis/verify.hpp.
//
// The whole subsystem stays in namespace cake::schedir and is built only
// into test/analysis configurations (see src/analysis/CMakeLists.txt);
// the release nm gate proves no schedir symbol reaches release objects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/block_plan.hpp"
#include "core/schedule.hpp"
#include "core/tiling.hpp"

namespace cake {
namespace schedir {

/// Which operation stream the IR describes: the CAKE executor with
/// pack/compute overlap off (kSerial) or on (kPipelined).
enum class Exec { kSerial, kPipelined };
const char* exec_name(Exec exec);

/// Storage a tile operation can touch. User surfaces are element-indexed
/// (rows x cols of the operand); pack panels are sliver-indexed (one row
/// per mr/nr sliver).
enum class BufKind { kUserA, kUserB, kUserC, kPackA, kPackB };

struct Buffer {
    std::string name;
    BufKind kind = BufKind::kUserA;
    int slots = 1;  ///< double-buffer halves (pack panels when pipelined)
};

enum class Access { kRead, kWrite, kReadWrite };

/// One rectangular read/write set of an operation: a half-open rect
/// [r0, r1) x [c0, c1) of generation `gen` living in `slot` of `buffer`.
/// A generation is one lifetime of the slot's contents; writing a later
/// generation recycles the slot and destroys every earlier one. In a CAKE
/// IR, a user-C generation is one visit of one C column (one uninterrupted
/// accumulation run): its first K block creates it and its last closes it.
struct TileSpan {
    int buffer = -1;  ///< index into ScheduleIR::buffers
    int slot = 0;
    index_t gen = 0;
    Access access = Access::kRead;
    index_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
    bool creates_gen = false;  ///< this write opens generation `gen`
    bool closes_gen = false;   ///< this access retires generation `gen`
};

/// What the operation does; one op is one runtime work item (a pack
/// sliver group, an mr compute band) or one statically assigned worker
/// chunk. Compute ops read the packed surfaces and write user C.
enum class OpKind { kPackA, kPackB, kStreamB, kCompute };
const char* op_kind_name(OpKind kind);

struct TileOp {
    OpKind kind = OpKind::kCompute;
    index_t phase = 0;  ///< barrier-delimited phase the op runs in
    index_t step = 0;   ///< schedule step it serves (diagnostics)
    BlockCoord block;   ///< CB-block coordinates
    int worker = -1;    ///< static worker id; -1 = dynamically claimed
    /// Dynamically claimed work item the op shares with other ops of its
    /// phase (-1: an item of its own). One thread runs a whole item.
    index_t item = -1;
    index_t seq = 0;    ///< program order within (phase, worker or item)
    /// Modelled external reads: the fetch of a pack or stream op, the C
    /// read-modify-write read of a compute op that retires its band.
    std::uint64_t dram_read_bytes = 0;
    std::uint64_t dram_write_bytes = 0;  ///< modelled external writes
    /// Modelled refetch of a spilled partial C surface (a CAKE compute op
    /// opening a revisit), counted apart from dram_read_bytes.
    std::uint64_t dram_reload_bytes = 0;
    std::vector<TileSpan> spans;
};

/// The extracted schedule of one multiply. A barrier separates every pair
/// of consecutive phases, so two operations are ordered iff their phases
/// differ, or they share a static worker or a work item inside one phase
/// (seq order). Everything else is concurrent — exactly the executor's
/// synchronisation structure.
struct ScheduleIR {
    Exec exec = Exec::kPipelined;
    ScheduleKind schedule = ScheduleKind::kKFirstSerpentine;
    GemmShape shape;
    CbBlockParams params;   ///< CB-block tiling
    int p = 0;              ///< worker count
    index_t mb = 0, nb = 0, kb = 0;  ///< CB-block grid
    index_t elem_bytes = 4;
    OperandBytes bytes;  ///< stored A/B/C widths the traffic counts
    bool use_prepacked = false;
    bool beta_nonzero = false;
    index_t expected_accums = 0;  ///< accumulations per user-C element
    index_t num_phases = 0;
    std::vector<Buffer> buffers;
    std::vector<TileOp> ops;
    std::vector<BlockCoord> order;  ///< block order
};

/// Extract the IR of a CAKE multiply: the executor's persistent-team
/// stream, one phase per entry of the plan's phase list (pipeline fill,
/// then one compute phase per step whose bands accumulate in place in
/// user C). A GOTO IR is this extraction of the GOTO plan:
/// goto_plan_params, ScheduleKind::kGoto, Exec::kSerial.
/// Exec::kPipelined co-issues pack(t+1) with compute(t) into
/// double-buffered pack slots; Exec::kSerial packs step t in a phase of
/// its own before computing it, single-buffered. `bytes` gives the stored
/// operand widths (zero fields: params.elem_bytes), e.g. {1, 1, 4} for the
/// u8 x s8 -> s32 family.
ScheduleIR extract_cake_ir(const GemmShape& shape,
                           const CbBlockParams& params, ScheduleKind kind,
                           Exec exec, bool use_prepacked = false,
                           bool beta_nonzero = false,
                           OperandBytes bytes = {});

/// Surface-level external traffic summed over the IR's operations,
/// decomposed the way the runtime stats and src/memsim decompose it.
struct IoTotals {
    std::uint64_t a_read = 0;         ///< user-A fetches (packing)
    std::uint64_t b_read = 0;         ///< user-B fetches (pack or stream)
    std::uint64_t c_write = 0;        ///< C write-backs to external memory
    std::uint64_t c_rmw_read = 0;     ///< write-back read-modify-write reads
    std::uint64_t c_reload_read = 0;  ///< spilled-partial reloads

    [[nodiscard]] std::uint64_t reads() const
    {
        return a_read + b_read + c_rmw_read + c_reload_read;
    }
    [[nodiscard]] std::uint64_t writes() const { return c_write; }
};
IoTotals io_totals(const ScheduleIR& ir);

/// Deterministic IR corruptions, each violating exactly one obligation
/// the verifier proves. apply_mutation returns the diagnostic code
/// verify_schedule_ir MUST report for the corrupted IR (and would never
/// report for the clean one).
enum class Mutation {
    kDropOp,            ///< delete one compute op -> IR_COVER (lost update)
    kDupOp,             ///< duplicate one compute op -> IR_COVER
    /// move an accumulation past the compute that retires its band
    /// -> IR_ORDER
    kReorderAccum,
    kOverlapBands,      ///< a band reaches into the next one -> IR_RACE_WW
    /// a retiring band's closing read of user C leaves the band's item
    /// -> IR_RACE_RW
    kSplitWriteback,
    kShrinkGeneration,  ///< collapse double buffers to one slot -> IR_LIFETIME
    kDropFlush,         ///< delete a retiring compute op -> IR_COVER
};
const char* mutation_name(Mutation m);
constexpr int kMutationCount = 7;

/// Corrupt `ir` in place; returns the diagnostic code the verifier must
/// now emit. Throws cake::Error if the IR has no site for this mutation
/// (e.g. kShrinkGeneration on a serial IR, which is single-buffered).
std::string apply_mutation(ScheduleIR& ir, Mutation m);

}  // namespace schedir
}  // namespace cake
