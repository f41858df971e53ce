// RAII aligned buffers for packed panels and matrices.
//
// In CAKE_CHECKED builds every AlignedBuffer is fenced and poisoned: a
// 64-byte canary guard precedes and follows the payload, and the payload
// itself is filled with signaling NaNs (byte poison for integral elements)
// at allocation. verify_canaries() traps if either guard was overwritten —
// the end of each GEMM driver's multiply calls it so a strided pack
// overrun is caught at the multiply that caused it, not crashes later.
// Release builds allocate exactly the payload and all of this compiles
// away.
//
// An allocation of 128 KiB or more maps its own pages and unmaps them on
// free, so a freed panel leaves the process's resident set at once. Left
// to malloc, freed large blocks stay resident in the heap (glibc raises
// its mmap threshold to the size of each freed mapping), and peak RSS
// then depends on heap placement rather than on what is live.
#pragma once

#include <cstddef>
#include <utility>

#include "common/checked.hpp"
#include "common/types.hpp"

namespace cake {

/// Allocates `bytes` rounded up to a multiple of `alignment`, aligned to
/// `alignment` (at most a page); 128 KiB or more get pages of their own.
/// Throws std::bad_alloc on failure.
void* aligned_malloc(std::size_t bytes, std::size_t alignment = kPanelAlignment);

/// Frees memory from aligned_malloc; `bytes` is the size it was asked
/// for. Null-safe.
void aligned_free(void* p, std::size_t bytes) noexcept;

/// Owning, 64-byte-aligned, zero-initialisable array of trivially copyable T.
/// Move-only; used for packed A/B/C panels where alignment matters for SIMD.
template <typename T>
class AlignedBuffer {
public:
    AlignedBuffer() = default;

    explicit AlignedBuffer(std::size_t count, bool zero = false)
        : size_(count)
    {
        if (count == 0) return;
#if CAKE_CHECKED_ENABLED
        // Layout: [front guard | payload | back guard]. kGuardBytes is a
        // multiple of kPanelAlignment, so the payload stays 64-byte aligned.
        raw_ = static_cast<unsigned char*>(
            aligned_malloc(count * sizeof(T) + 2 * checked::kGuardBytes));
        data_ = reinterpret_cast<T*>(raw_ + checked::kGuardBytes);
        checked::write_guard(raw_);
        checked::write_guard(raw_ + checked::kGuardBytes
                             + count * sizeof(T));
        checked::poison_fill(data_, count);
#else
        data_ = static_cast<T*>(aligned_malloc(count * sizeof(T)));
#endif
        if (zero) {
            for (std::size_t i = 0; i < count; ++i) data_[i] = T{};
        }
    }

    AlignedBuffer(const AlignedBuffer&) = delete;
    AlignedBuffer& operator=(const AlignedBuffer&) = delete;

    AlignedBuffer(AlignedBuffer&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
#if CAKE_CHECKED_ENABLED
          ,
          raw_(std::exchange(other.raw_, nullptr))
#endif
    {
    }

    AlignedBuffer& operator=(AlignedBuffer&& other) noexcept
    {
        if (this != &other) {
            release();
            data_ = std::exchange(other.data_, nullptr);
            size_ = std::exchange(other.size_, 0);
#if CAKE_CHECKED_ENABLED
            raw_ = std::exchange(other.raw_, nullptr);
#endif
        }
        return *this;
    }

    ~AlignedBuffer() { release(); }

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    T& operator[](std::size_t i) noexcept { return data_[i]; }
    const T& operator[](std::size_t i) const noexcept { return data_[i]; }

    /// Reallocate if the current capacity is smaller than `count`.
    /// Contents are NOT preserved (panel buffers are fully rewritten).
    void ensure(std::size_t count)
    {
        if (count <= size_) return;
        *this = AlignedBuffer(count);
    }

    /// Trap (CAKE_CHECKED builds) if either canary guard was overwritten;
    /// `what` names the buffer in the diagnostic. No-op in release builds.
    void verify_canaries([[maybe_unused]] const char* what) const
    {
#if CAKE_CHECKED_ENABLED
        if (raw_ == nullptr) return;
        if (!checked::guard_intact(raw_)) {
            checked::fail("canary",
                          std::string(what)
                              + ": front guard overwritten (buffer "
                                "underrun)");
        }
        if (!checked::guard_intact(raw_ + checked::kGuardBytes
                                   + size_ * sizeof(T))) {
            checked::fail("canary",
                          std::string(what)
                              + ": back guard overwritten (buffer overrun)");
        }
#endif
    }

private:
    void release() noexcept
    {
#if CAKE_CHECKED_ENABLED
        aligned_free(raw_, size_ * sizeof(T) + 2 * checked::kGuardBytes);
        raw_ = nullptr;
#else
        aligned_free(data_, size_ * sizeof(T));
#endif
        data_ = nullptr;
        size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
#if CAKE_CHECKED_ENABLED
    unsigned char* raw_ = nullptr;  ///< allocation base (front guard)
#endif
};

}  // namespace cake
