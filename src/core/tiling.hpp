// Constant-bandwidth (CB) block shaping and sizing — the analytical heart
// of the paper (§3, §4.2, §4.3).
//
// A CB block is a (p*mc) x kc x (alpha*p*mc) sub-volume of the MM
// computation space:
//   * mc = kc: square A sub-block reused in each core's L2 (§4.1/§4.2),
//   * p: number of cores, stacking p A sub-blocks in the M dimension,
//   * alpha >= 1: stretches the N dimension so the block's compute time
//     covers its IO time under the available DRAM bandwidth (Eq. 2 / Eq. 4),
//   * the whole block is sized so its three IO surfaces fit the last-level
//     cache under LRU with headroom: C + 2(A+B) <= S (§4.3).
#pragma once

#include <optional>

#include "common/types.hpp"
#include "machine/machine.hpp"

namespace cake {

/// Resolved CB-block geometry for a machine / core count / kernel shape.
struct CbBlockParams {
    int p = 1;          ///< cores used
    index_t mr = 0;     ///< register-tile rows of the micro-kernel
    index_t nr = 0;     ///< register-tile cols of the micro-kernel
    index_t mc = 0;     ///< per-core L2 sub-block rows (mc == kc)
    index_t kc = 0;     ///< reduction depth of the block
    double alpha = 1.0; ///< N-dimension stretch factor (>= 1)
    index_t elem_bytes = 4;  ///< matrix element size (4 = f32, 8 = f64)

    index_t m_blk = 0;  ///< CB block M extent  = p * mc
    index_t k_blk = 0;  ///< CB block K extent  = kc
    index_t n_blk = 0;  ///< CB block N extent  = round_up(alpha*p*mc, nr)

    /// Bytes of LLC occupied by the three IO surfaces (A + B + C).
    [[nodiscard]] std::size_t surface_bytes() const;

    /// LRU working-set requirement of §4.3: C + 2(A + B), in bytes.
    [[nodiscard]] std::size_t lru_working_set_bytes() const;

    /// Arithmetic intensity of the block in FLOPs per DRAM byte
    /// (partial C stays local, so DRAM traffic is the A and B surfaces).
    [[nodiscard]] double arithmetic_intensity() const;

    friend bool operator==(const CbBlockParams&,
                           const CbBlockParams&) = default;
};

/// Inputs to the solver that do not come from the MachineSpec.
struct TilingOptions {
    std::optional<index_t> mc;     ///< force mc; multiple of mr
    /// Force kc independently of mc (default: kc = mc, the square §4.1
    /// sub-block). The empirical autotuner (src/tune) searches this axis;
    /// audit_cb_plan treats a non-square override as deliberate.
    std::optional<index_t> kc;
    /// Force the CB-block N extent directly (rounded up to nr); alpha is
    /// then derived as nc / (p * mc). Mutually exclusive with `alpha` —
    /// the solver rejects the combination.
    std::optional<index_t> nc;
    std::optional<double> alpha;   ///< force alpha (>= 1)
    /// Fraction of each cache level usable for matrix operands; leaves
    /// headroom for stacks, code and the LRU rule at L2.
    double l2_fraction = 0.5;
    double llc_fraction = 1.0;     ///< §4.3 rule already adds the headroom
    index_t elem_bytes = 4;        ///< element size (4 = f32, 8 = f64)
};

/// Solve for CB block shape and size on `machine` with `p` cores and a
/// micro-kernel of shape mr x nr (paper §3 + §4.2 + §4.3):
///   1. mc = kc from the per-core L2 (square sub-block, l2_fraction),
///   2. alpha from DRAM bandwidth: smallest alpha with IO time <= compute
///      time, i.e. alpha >= 1/(R-1) where R is the bandwidth-availability
///      ratio of Eq. 2 (alpha = 1 when bandwidth is ample),
///   3. shrink mc / clamp alpha until C + 2(A+B) <= LLC (§4.3).
/// Throws cake::Error if even the minimal block cannot fit.
CbBlockParams compute_cb_block(const MachineSpec& machine, int p, index_t mr,
                               index_t nr, const TilingOptions& opts = {});

/// The bandwidth-availability ratio R = BW_dram / BW_floor where BW_floor
/// is the block's DRAM bandwidth demand as alpha -> infinity (tiles/cycle
/// analysis of §3.2 mapped to bytes/s). R <= 1 means DRAM can never keep
/// up at alpha = 1 geometry and alpha must grow to its LLC-limited maximum.
double bandwidth_ratio(const MachineSpec& machine, int p, index_t mr,
                       index_t nr, index_t mc, index_t kc,
                       index_t elem_bytes = 4);

/// DRAM bandwidth (GB/s) a CB block with these parameters demands so IO
/// time equals compute time — the runtime analogue of Eq. 4:
/// BW = (alpha+1)/alpha * mr*nr expressed in bytes per second.
double required_dram_bw_gbs(const MachineSpec& machine,
                            const CbBlockParams& params);

/// Size in bytes of the cache level the solver treats as each core's
/// private memory — the deepest per-core level below the LLC, where the
/// square mc x kc A sub-block must reside (§4.2). Exposed so the invariant
/// auditor (src/core/audit) can re-derive the residency inequality.
std::size_t private_cache_bytes(const MachineSpec& machine);

/// The square per-core sub-block edge mc = kc that fills `fraction` of
/// the private cache with `elem_bytes`-wide elements (§4.1, §4.2),
/// rounded down to a multiple of mr and at least mr. Step 1 of
/// compute_cb_block; GOTO's blocking uses the same rule (§4.4: both
/// algorithms reuse square A sub-blocks in the private cache).
index_t square_private_block(const MachineSpec& machine, index_t mr,
                             double fraction, index_t elem_bytes);

}  // namespace cake
