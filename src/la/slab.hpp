#pragma once

/// \file slab.hpp
/// Storage for large structures that are refilled in parallel: the odd-even
/// factorization's level slabs and their per-block descriptors.

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "la/types.hpp"

namespace pitk::la {

/// Size from which a buffer is aligned to, and on Linux advised onto,
/// transparent huge pages: faulting it in and returning it then cost per
/// 2 MiB instead of per 4 KiB (a k = 1e5 factor holds ~300 MiB).
inline constexpr std::size_t huge_page_bytes = std::size_t{2} << 20;

/// Ask the kernel to back [p, p + bytes) with transparent huge pages.
/// Advisory only: without them the buffer stays on base pages.
void advise_huge_pages(void* p, std::size_t bytes) noexcept;

/// Allocator for slab storage.  Draws from AlignedAllocator, so it is
/// counted like every Matrix; buffers of at least huge_page_bytes are
/// huge-page aligned and advised.  `construct` default-initializes, so a
/// resize leaves doubles unwritten: each page is first touched by the worker
/// that fills it, not by a serial zero fill.
template <class T>
struct SlabAllocator {
  using value_type = T;

  SlabAllocator() noexcept = default;
  template <class U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (!huge(n)) return AlignedAllocator<T>().allocate(n);
    T* p = AlignedAllocator<T, huge_page_bytes>().allocate(n);
    advise_huge_pages(p, n * sizeof(T));
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (huge(n))
      AlignedAllocator<T, huge_page_bytes>().deallocate(p, n);
    else
      AlignedAllocator<T>().deallocate(p, n);
  }

  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0)
      ::new (static_cast<void*>(p)) U;
    else
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const SlabAllocator<U>&) const noexcept {
    return true;
  }

 private:
  static bool huge(std::size_t n) noexcept { return n >= huge_page_bytes / sizeof(T); }
};

template <class T>
using SlabVector = std::vector<T, SlabAllocator<T>>;

/// Resize `slab` to `n` doubles for a complete refill: contents become
/// indeterminate, and no allocation happens when `n` fits the capacity.
/// (Clearing first means a grow copies nothing.)
inline double* refill(SlabVector<double>& slab, std::size_t n) {
  slab.clear();
  slab.resize(n);
  return slab.data();
}

}  // namespace pitk::la
