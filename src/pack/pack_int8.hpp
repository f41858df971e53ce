// Panel-level packing for the quantized (u8 x s8 -> s32) path. The
// packed layout belongs to each int8 registry entry (its gather_sliver /
// copy_sliver and K granule, kernel/microkernel.hpp), and src/pack packs
// every family through one sliver walk (pack_a_slivers / pack_b_slivers).
// The names below forward to the dispatched int8 entry,
// best_microkernel_of<U8S8S32>(), for bench/ledger, which changes only in
// a change of its own; no other caller may use them (lint rule 10).
#pragma once

#include <cstdint>

#include "pack/pack.hpp"

namespace cake {

/// k-quads covering a reduction depth of k: the int8 kernels' `steps`.
constexpr index_t int8_kq(index_t k)
{
    return ceil_div(k, 4);
}

/// Bytes the dispatched int8 entry packs an m x k block of u8 A into.
index_t packed_a_int8_size(index_t m, index_t k, index_t mr);

/// Bytes the dispatched int8 entry packs a k x n block of s8 B into.
index_t packed_b_int8_size(index_t k, index_t n, index_t nr);

/// pack_a_slivers with the dispatched int8 entry: throws a coded
/// [I8_A_RANGE] Error if any A value exceeds 127.
void pack_a_panel_int8(const std::uint8_t* a, index_t lda, index_t m,
                       index_t k, index_t mr, std::uint8_t* out);

/// pack_b_slivers with the dispatched int8 entry.
void pack_b_panel_int8(const std::int8_t* b, index_t ldb, index_t k,
                       index_t n, index_t nr, std::int8_t* out);

}  // namespace cake
