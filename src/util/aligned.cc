#include "util/aligned.h"

#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/check.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define MDE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MDE_ASAN 1
#endif
#endif

#if defined(MDE_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mde {
namespace {

/// Asks the kernel to back the whole 2 MiB pages of [p, p + bytes) with
/// transparent huge pages; `p` must be kHugePageBytes-aligned. Advice only:
/// a kernel without THP, or with it switched off, ignores it.
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

/// The parking slot plus the true capacity of every live huge block, all
/// guarded by `mu`.
struct HugeRecycler {
  std::mutex mu;
  void* parked = nullptr;
  size_t parked_bytes = 0;
  std::unordered_map<void*, size_t> live;
};

HugeRecycler& Recycler() {
  // Never destroyed: vectors in other statics may free blocks during exit.
  static HugeRecycler* const recycler = new HugeRecycler;
  return *recycler;
}

void ReleaseToOs(void* p) noexcept {
  if (p != nullptr) ::operator delete(p, std::align_val_t{kHugePageBytes});
}

}  // namespace

void* AllocateHugeBlock(size_t bytes) {
  HugeRecycler& r = Recycler();
  void* parked = nullptr;
  bool reuse = false;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    parked = std::exchange(r.parked, nullptr);
    reuse = parked != nullptr && r.parked_bytes >= bytes;
    if (reuse) r.live.emplace(parked, r.parked_bytes);
    r.parked_bytes = 0;
  }
  if (reuse) {
#if defined(MDE_ASAN)
    ASAN_UNPOISON_MEMORY_REGION(parked, bytes);
    std::memset(parked, 0xbe, bytes);
#endif
    return parked;
  }
  // Too small to serve this request: give it back before the fresh
  // allocation, so resident memory never holds both.
  ReleaseToOs(parked);
  void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
  AdviseHugePages(p, bytes);
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.emplace(p, bytes);
  return p;
}

void FreeHugeBlock(void* p) noexcept {
  HugeRecycler& r = Recycler();
  void* evicted = p;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    const auto it = r.live.find(p);
    MDE_CHECK(it != r.live.end());
    const size_t capacity = it->second;
    r.live.erase(it);
    if (capacity > r.parked_bytes) {
#if defined(MDE_ASAN)
      // Poisoned before it is published, so a taker's unpoison wins.
      ASAN_POISON_MEMORY_REGION(p, capacity);
#endif
      evicted = std::exchange(r.parked, p);
      r.parked_bytes = capacity;
    }
  }
  ReleaseToOs(evicted);
}

size_t ParkedHugeBlockBytes() {
  HugeRecycler& r = Recycler();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.parked_bytes;
}

}  // namespace mde
