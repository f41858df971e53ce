#include "core/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

/// Generic 3-deep boustrophedon traversal. `dims[0]` is outermost.
/// When `serpentine` is set, the middle dimension reverses direction after
/// every outer step and the inner dimension after every middle step, so
/// consecutive blocks always differ by one grid step in exactly one
/// coordinate — the surface-sharing property of §2.2.
std::vector<std::array<index_t, 3>> boustrophedon(
    std::array<index_t, 3> dims, bool serpentine)
{
    std::vector<std::array<index_t, 3>> order;
    order.reserve(static_cast<std::size_t>(dims[0] * dims[1] * dims[2]));
    bool mid_fwd = true;
    bool inner_fwd = true;
    for (index_t o = 0; o < dims[0]; ++o) {
        for (index_t mi = 0; mi < dims[1]; ++mi) {
            const index_t mid = mid_fwd ? mi : dims[1] - 1 - mi;
            for (index_t ii = 0; ii < dims[2]; ++ii) {
                const index_t inner = inner_fwd ? ii : dims[2] - 1 - ii;
                order.push_back({o, mid, inner});
            }
            if (serpentine) inner_fwd = !inner_fwd;
        }
        if (serpentine) mid_fwd = !mid_fwd;
    }
    return order;
}

index_t sgn(index_t v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
index_t iabs(index_t v) { return v < 0 ? -v : v; }

/// Generalised Hilbert traversal of a rectangle: recursive halving along
/// the major axis `(ax, ay)` (minor `(bx, by)`), with odd splits nudged to
/// even so sub-rectangles keep compatible orientations. Every consecutive
/// pair of emitted cells is one grid step apart, for arbitrary
/// (non-power-of-two, non-square) extents — the property the adjacency
/// tests pin and the surface-sharing argument of §2.2 needs.
void gilbert(index_t x, index_t y, index_t ax, index_t ay, index_t bx,
             index_t by, std::vector<std::array<index_t, 2>>& out)
{
    const index_t w = iabs(ax + ay);
    const index_t h = iabs(bx + by);
    const index_t dax = sgn(ax), day = sgn(ay);
    const index_t dbx = sgn(bx), dby = sgn(by);
    if (h == 1) {
        for (index_t i = 0; i < w; ++i) {
            out.push_back({x, y});
            x += dax;
            y += day;
        }
        return;
    }
    if (w == 1) {
        for (index_t i = 0; i < h; ++i) {
            out.push_back({x, y});
            x += dbx;
            y += dby;
        }
        return;
    }
    index_t ax2 = ax / 2, ay2 = ay / 2;
    index_t bx2 = bx / 2, by2 = by / 2;
    const index_t w2 = iabs(ax2 + ay2);
    const index_t h2 = iabs(bx2 + by2);
    if (2 * w > 3 * h) {
        if (w2 % 2 != 0 && w > 2) {
            ax2 += dax;
            ay2 += day;
        }
        // Elongated rectangle: split into two halves along the major axis.
        gilbert(x, y, ax2, ay2, bx, by, out);
        gilbert(x + ax2, y + ay2, ax - ax2, ay - ay2, bx, by, out);
        return;
    }
    if (h2 % 2 != 0 && h > 2) {
        bx2 += dbx;
        by2 += dby;
    }
    // Standard U: step sideways, sweep the long middle, step back down.
    gilbert(x, y, bx2, by2, ax2, ay2, out);
    gilbert(x + bx2, y + by2, ax, ay, bx - bx2, by - by2, out);
    gilbert(x + (ax - dax) + (bx2 - dbx), y + (ay - day) + (by2 - dby),
            -bx2, -by2, -(ax - ax2), -(ay - ay2), out);
}

/// Hilbert cells {m, n} over the block plane. The recursive U enters at
/// one corner and exits at the far corner of its major axis, which is
/// reachable without a diagonal step iff NOT (major odd and minor even)
/// — checkerboard parity: a Hamiltonian path over w x h cells alternates
/// colours, and with w odd, h even the designated exit corner has the
/// wrong colour. So the major axis is never the odd side of an
/// odd x even grid; equal-parity grids honour the §2.2 outer-loop
/// orientation. Adjacency for every rectangle is pinned by tests.
std::vector<std::array<index_t, 2>> hilbert_cells(index_t mb, index_t nb,
                                                  bool n_outermost)
{
    std::vector<std::array<index_t, 2>> cells;
    cells.reserve(static_cast<std::size_t>(mb * nb));
    const bool m_even = mb % 2 == 0;
    const bool n_even = nb % 2 == 0;
    const bool n_major = m_even == n_even ? n_outermost : n_even;
    if (n_major) {
        gilbert(0, 0, 0, nb, mb, 0, cells);
    } else {
        gilbert(0, 0, mb, 0, 0, nb, cells);
    }
    return cells;
}

std::uint64_t morton_code(index_t fast, index_t slow)
{
    std::uint64_t code = 0;
    for (int b = 0; b < 32; ++b) {
        code |= ((static_cast<std::uint64_t>(fast) >> b) & 1U)
            << (2 * b);
        code |= ((static_cast<std::uint64_t>(slow) >> b) & 1U)
            << (2 * b + 1);
    }
    return code;
}

/// Morton cells {m, n}: every cell ranked by its interleaved-bit code
/// (low bit = the serpentine's middle loop, M when N is outermost), so
/// arbitrary extents need no walk of the enclosing power-of-two square.
std::vector<std::array<index_t, 2>> morton_cells(index_t mb, index_t nb,
                                                 bool n_outermost)
{
    std::vector<std::array<index_t, 2>> cells;
    cells.reserve(static_cast<std::size_t>(mb * nb));
    for (index_t m = 0; m < mb; ++m) {
        for (index_t n = 0; n < nb; ++n) cells.push_back({m, n});
    }
    std::sort(cells.begin(), cells.end(),
              [n_outermost](const std::array<index_t, 2>& a,
                            const std::array<index_t, 2>& b) {
                  const std::uint64_t ca = n_outermost
                      ? morton_code(a[0], a[1])
                      : morton_code(a[1], a[0]);
                  const std::uint64_t cb = n_outermost
                      ? morton_code(b[0], b[1])
                      : morton_code(b[1], b[0]);
                  return ca < cb;
              });
    return cells;
}

}  // namespace

const char* schedule_kind_name(ScheduleKind kind)
{
    switch (kind) {
        case ScheduleKind::kKFirstSerpentine: return "k-first-serpentine";
        case ScheduleKind::kKFirstNoFlip: return "k-first-no-flip";
        case ScheduleKind::kNInnermost: return "n-innermost";
        case ScheduleKind::kHilbert: return "hilbert";
        case ScheduleKind::kMorton: return "morton";
        case ScheduleKind::kGoto: return "goto";
    }
    return "unknown";
}

const std::vector<ScheduleKind>& all_schedule_kinds()
{
    static const std::vector<ScheduleKind> kinds = {
        ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
        ScheduleKind::kNInnermost,       ScheduleKind::kHilbert,
        ScheduleKind::kMorton,           ScheduleKind::kGoto,
    };
    return kinds;
}

std::optional<ScheduleKind> parse_schedule_kind(std::string_view name)
{
    for (const ScheduleKind kind : all_schedule_kinds()) {
        if (name == schedule_kind_name(kind)) return kind;
    }
    return std::nullopt;
}

std::vector<BlockCoord> build_schedule(ScheduleKind kind, index_t mb,
                                       index_t nb, index_t kb,
                                       bool n_outermost)
{
    CAKE_CHECK(mb >= 1 && nb >= 1 && kb >= 1);
    std::vector<BlockCoord> result;
    result.reserve(static_cast<std::size_t>(mb * nb * kb));

    const bool serpentine = kind != ScheduleKind::kKFirstNoFlip
        && kind != ScheduleKind::kGoto;
    std::vector<std::array<index_t, 3>> raw;

    switch (kind) {
        case ScheduleKind::kKFirstSerpentine:
        case ScheduleKind::kKFirstNoFlip:
            // Outer = N (or M when M > N, §2.2), middle = the other of
            // M/N, inner = K (reduction first).
            if (n_outermost) {
                raw = boustrophedon({nb, mb, kb}, serpentine);
                for (const auto& r : raw) result.push_back({r[1], r[0], r[2]});
            } else {
                raw = boustrophedon({mb, nb, kb}, serpentine);
                for (const auto& r : raw) result.push_back({r[0], r[1], r[2]});
            }
            break;
        case ScheduleKind::kNInnermost:
            // Outer = M, middle = K, inner = N: every partial-C surface is
            // revisited Kb times with gaps — the traffic pattern the paper's
            // K-first schedule is designed to avoid.
            raw = boustrophedon({mb, kb, nb}, serpentine);
            for (const auto& r : raw) result.push_back({r[0], r[2], r[1]});
            break;
        case ScheduleKind::kGoto:
            // jc, then pc, then ic, each restarting at 0: the loop nest
            // is fixed, so the §2.2 orientation does not apply.
            raw = boustrophedon({nb, kb, mb}, serpentine);
            for (const auto& r : raw) result.push_back({r[2], r[0], r[1]});
            break;
        case ScheduleKind::kHilbert:
        case ScheduleKind::kMorton: {
            // Space-filling traversal of the (M, N) plane, K innermost
            // with its direction flipped per cell so the reduction run
            // carries k across every cell boundary: a cell transition that
            // moves one step in N shares A, one step in M shares B, and
            // the K run itself shares C — Hilbert transitions are always
            // one such step, Morton jumps refetch both inputs.
            const auto cells = kind == ScheduleKind::kHilbert
                ? hilbert_cells(mb, nb, n_outermost)
                : morton_cells(mb, nb, n_outermost);
            bool k_fwd = true;
            for (const auto& cell : cells) {
                for (index_t kk = 0; kk < kb; ++kk) {
                    const index_t k = k_fwd ? kk : kb - 1 - kk;
                    result.push_back({cell[0], cell[1], k});
                }
                k_fwd = !k_fwd;
            }
            break;
        }
    }
    return result;
}

std::vector<BlockCoord> build_layered_schedule(ScheduleKind kind, index_t mb,
                                               index_t nb, index_t kb,
                                               index_t k_layers,
                                               bool n_outermost)
{
    CAKE_CHECK(mb >= 1 && nb >= 1 && kb >= 1 && k_layers >= 1);
    const index_t layers = std::min(k_layers, kb);
    if (layers <= 1) return build_schedule(kind, mb, nb, kb, n_outermost);
    std::vector<BlockCoord> result;
    result.reserve(static_cast<std::size_t>(mb * nb * kb));
    for (index_t l = 0; l < layers; ++l) {
        // Balanced contiguous K slabs; extents differ by at most one.
        const index_t k0 = l * kb / layers;
        const index_t k1 = (l + 1) * kb / layers;
        std::vector<BlockCoord> layer =
            build_schedule(kind, mb, nb, k1 - k0, n_outermost);
        // Alternate layers replay the (m, n) walk in reverse so the seam
        // column keeps its partial surface local across the layer switch.
        if (l % 2 == 1) std::reverse(layer.begin(), layer.end());
        for (const BlockCoord& c : layer) {
            result.push_back({c.m, c.n, c.k + k0});
        }
    }
    return result;
}

std::vector<BlockCoord> block_order(ScheduleKind kind, const GemmShape& shape,
                                    const CbBlockParams& params,
                                    index_t k_layers)
{
    const auto grid = [](index_t extent, index_t blk) {
        return blk < 1 ? index_t{1}
                       : std::max<index_t>(ceil_div(extent, blk), 1);
    };
    return build_layered_schedule(kind, grid(shape.m, params.m_blk),
                                  grid(shape.n, params.n_blk),
                                  grid(shape.k, params.k_blk),
                                  std::max<index_t>(k_layers, 1),
                                  /*n_outermost=*/shape.n >= shape.m);
}

SurfaceSharing shared_surfaces(const BlockCoord& prev, const BlockCoord& next)
{
    SurfaceSharing s;
    s.a = prev.m == next.m && prev.k == next.k;
    s.b = prev.k == next.k && prev.n == next.n;
    s.c = prev.m == next.m && prev.n == next.n;
    return s;
}

SurfaceSharing carried_surfaces(ScheduleKind kind, const BlockCoord& prev,
                                const BlockCoord& next)
{
    SurfaceSharing s = shared_surfaces(prev, next);
    if (kind == ScheduleKind::kGoto) {
        s.a = false;
        s.c = false;
    }
    return s;
}

index_t count_shared_steps(const std::vector<BlockCoord>& order)
{
    index_t shared = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        const SurfaceSharing s = shared_surfaces(order[i - 1], order[i]);
        if (s.a || s.b || s.c) ++shared;
    }
    return shared;
}

ScheduleTraffic schedule_traffic(ScheduleKind kind,
                                 const std::vector<BlockCoord>& order)
{
    ScheduleTraffic t;
    if (order.empty()) return t;

    // Total K depth: a C surface is complete once all kb blocks of its
    // (m, n) column have executed.
    index_t kb = 0;
    for (const auto& c : order) kb = std::max(kb, c.k + 1);

    std::map<std::pair<index_t, index_t>, index_t> c_progress;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const auto& cur = order[i];
        const SurfaceSharing s = i == 0
            ? SurfaceSharing{}
            : carried_surfaces(kind, order[i - 1], cur);
        if (!s.a) ++t.a_fetches;
        if (!s.b) ++t.b_fetches;
        if (i > 0 && !s.c) {
            // We left the previous (m, n) column; if it was incomplete its
            // partial-result surface must spill to external memory and be
            // fetched again later (costing twice a completed result, §2.2).
            const auto& prev = order[i - 1];
            if (c_progress[{prev.m, prev.n}] < kb) ++t.c_spills;
        }
        ++c_progress[{cur.m, cur.n}];
    }
    return t;
}

}  // namespace cake
