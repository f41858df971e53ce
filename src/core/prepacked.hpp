// Pre-packed weights: for inference serving, the B operand (weights) is
// reused across thousands of multiplies — packing it once into CB-block
// panel format and skipping the per-call pack step removes the dominant
// per-call overhead of skewed DNN shapes (§5.2.1).
//
// A PackedB is tied to the CB geometry it was packed for (machine, p, mc,
// alpha, kernel); multiply_prepacked verifies the geometry matches. It is
// templated over the kernel family (kernel/kernel_family.hpp) and stores the
// family's B element type: PackedB<float>, PackedB<double>, and
// PackedBInt8 = PackedB<U8S8S32> holding s8 weights in k-quad panels.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "kernel/kernel_family.hpp"
#include "core/tiling.hpp"

namespace cake {

template <typename T>
class CakeGemmT;

/// B operand packed once into per-CB-block nr-sliver panels.
template <typename T>
class PackedB {
public:
    using Elem = typename KernelFamily<T>::B;

    PackedB() = default;

    [[nodiscard]] index_t k() const { return k_; }
    [[nodiscard]] index_t n() const { return n_; }
    [[nodiscard]] const CbBlockParams& params() const { return params_; }

    /// Packed panel for grid block (k_idx, n_idx).
    [[nodiscard]] const Elem* panel(index_t k_idx, index_t n_idx) const
    {
        const index_t slot = k_idx * nb_ + n_idx;
        require_extent(slot * static_cast<index_t>(stride_),
                       static_cast<index_t>(stride_), data_.size(),
                       "pre-packed B panel");
        return data_.data() + static_cast<std::size_t>(slot) * stride_;
    }

    /// Elements per panel slot (max panel size).
    [[nodiscard]] std::size_t panel_stride() const { return stride_; }

    /// CAKE_CHECKED: trap if the packed storage's guards were overwritten.
    void verify_canaries() const
    {
        data_.verify_canaries("pre-packed B storage");
    }

    [[nodiscard]] bool empty() const { return data_.empty(); }

private:
    friend class CakeGemmT<T>;

    CbBlockParams params_;
    index_t k_ = 0;
    index_t n_ = 0;
    index_t kb_ = 0;  ///< grid blocks along K
    index_t nb_ = 0;  ///< grid blocks along N
    std::size_t stride_ = 0;  ///< elements per panel slot (max panel size)
    AlignedBuffer<Elem> data_;
};

using PackedBF = PackedB<float>;
using PackedBD = PackedB<double>;

}  // namespace cake
