#include "la/slab.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pitk::la {

void advise_huge_pages([[maybe_unused]] void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  (void)madvise(p, bytes, MADV_HUGEPAGE);
#endif
}

}  // namespace pitk::la
