#include "common/aligned.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <new>

namespace cake {

namespace {

/// Allocations at least this large get pages of their own (mmap).
constexpr std::size_t kMapBytes = std::size_t{128} << 10;

}  // namespace

void* aligned_malloc(std::size_t bytes, std::size_t alignment)
{
    if (bytes >= kMapBytes) {
        // Page-aligned, so every alignment up to a page holds.
        void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) throw std::bad_alloc{};
        return p;
    }
    if (bytes == 0) bytes = alignment;
    // std::aligned_alloc requires size to be a multiple of alignment.
    const std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
    void* p = std::aligned_alloc(alignment, rounded);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

void aligned_free(void* p, std::size_t bytes) noexcept
{
    if (p == nullptr) return;
    if (bytes >= kMapBytes) {
        munmap(p, bytes);
    } else {
        std::free(p);
    }
}

}  // namespace cake
