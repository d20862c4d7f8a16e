#include "support/frame_bytes.h"

#include <sys/mman.h>

namespace rif {

void advise_huge_pages(void* data, std::size_t bytes) noexcept {
#ifdef MADV_HUGEPAGE
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first =
      (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (first >= last) return;
  // Advice only: a kernel without transparent huge pages refuses it, and
  // the buffer works the same in 4 KiB pages.
  (void)::madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace rif
