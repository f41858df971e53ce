// The edge entry (MicroKernelT::edge, kernel/microkernel.hpp) of the SIMD
// kernels whose C row is two vectors of V::lanes lanes: AVX-512 and AVX2
// float and double, and AVX2 int8. One body, templated on the vector
// traits V, the live row count M (fixed at compile time, as in BLIS's
// edge-case kernels) and whether the live columns reach the second
// vector of the row. Only C is masked: the packed slivers are zero-padded
// to mr x nr, so the body reads them exactly as the full-tile kernel does.
//
// Each SIMD translation unit instantiates it with traits declared in its
// own anonymous namespace under its own target flags, so no instantiation
// is shared across ISAs. V provides
//   A, B, C, Reg, Mask          element, vector and C-mask types
//   mr, lanes, k_step           tile rows, C lanes per vector, K per step
//   zero()                      a zero accumulator
//   load(b)                     one aligned vector of the packed B sliver
//   bcast(a)                    one row's A step broadcast to every lane
//   fma(ai, b, acc)             acc + ai * b (a dot product for int8)
//   add(x, y)                   x + y
//   loadu(c), storeu(c, v)      one full C vector
//   mask(n)                     the lowest n lanes live (n clamped)
//   load_mask(m, c)             C lanes of m, zero elsewhere, no fault
//   store_mask(c, m, v)         write only the lanes of m
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "common/types.hpp"

namespace cake::simd_edge {

template <class V, int M, bool Two>
void body(index_t steps, const typename V::A* a, const typename V::B* b,
          typename V::C* c, index_t ldc, index_t n, bool accumulate)
{
    constexpr index_t kS = V::k_step;
    constexpr index_t kLanes = V::lanes;
    constexpr int kVecs = Two ? 2 : 1;
    typename V::Reg acc[M][kVecs];
    for (auto& row : acc)
        for (auto& v : row) v = V::zero();

    for (index_t p = 0; p < steps; ++p) {
        typename V::Reg bv[kVecs];
        for (int v = 0; v < kVecs; ++v)
            bv[v] = V::load(b + (p * 2 * kLanes + v * kLanes) * kS);
        const typename V::A* ap = a + p * V::mr * kS;
        for (int i = 0; i < M; ++i) {
            const typename V::Reg ai = V::bcast(ap + i * kS);
            for (int v = 0; v < kVecs; ++v)
                acc[i][v] = V::fma(ai, bv[v], acc[i][v]);
        }
    }

    // Columns [0, n) are live: all of the first vector when Two, else its
    // lowest n lanes; the last vector holds n - (kVecs - 1) * lanes.
    const typename V::Mask live = V::mask(n - (kVecs - 1) * kLanes);
    for (int i = 0; i < M; ++i) {
        typename V::C* ci = c + i * ldc;
        if constexpr (Two) {
            if (accumulate) acc[i][0] = V::add(acc[i][0], V::loadu(ci));
            V::storeu(ci, acc[i][0]);
        }
        typename V::C* tail = ci + (kVecs - 1) * kLanes;
        if (accumulate)
            acc[i][kVecs - 1] =
                V::add(acc[i][kVecs - 1], V::load_mask(live, tail));
        V::store_mask(tail, live, acc[i][kVecs - 1]);
    }
}

template <class V>
using BodyFn = void (*)(index_t, const typename V::A*, const typename V::B*,
                        typename V::C*, index_t, index_t, bool);

/// table[m - 1][two]: the body for m live rows, with one or two vectors.
template <class V, std::size_t... I>
constexpr std::array<std::array<BodyFn<V>, 2>, sizeof...(I)> table(
    std::index_sequence<I...>)
{
    return {{{&body<V, static_cast<int>(I) + 1, false>,
              &body<V, static_cast<int>(I) + 1, true>}...}};
}

/// The edge entry: 1 <= m <= V::mr, 1 <= n <= 2 * V::lanes.
template <class V>
void kernel(index_t steps, const typename V::A* a, const typename V::B* b,
            typename V::C* c, index_t ldc, index_t m, index_t n,
            bool accumulate)
{
    static constexpr auto kTable =
        table<V>(std::make_index_sequence<static_cast<std::size_t>(V::mr)>{});
    kTable[static_cast<std::size_t>(m - 1)][n > V::lanes ? 1 : 0](
        steps, a, b, c, ldc, n, accumulate);
}

}  // namespace cake::simd_edge
