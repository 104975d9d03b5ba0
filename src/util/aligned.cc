#include "util/aligned.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace mde {

void AdviseHugePages(void* p, size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Only whole huge pages inside the block: the advice must not reach
  // memory the allocator handed to someone else. The result is ignored;
  // without THP the block simply stays on 4 KiB pages.
  const size_t len = bytes & ~(kHugePageBytes - 1);
  if (len != 0) (void)madvise(p, len, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace mde
