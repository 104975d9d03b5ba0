#ifndef MDE_UTIL_ALIGNED_H_
#define MDE_UTIL_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace mde {

/// Allocations of at least this many bytes are aligned to it and advised
/// onto transparent huge pages.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Asks the kernel to back the whole 2 MiB pages of [p, p + bytes) with
/// transparent huge pages; `p` must be kHugePageBytes-aligned. Advice only:
/// a kernel without THP, or with it switched off, ignores it.
void AdviseHugePages(void* p, size_t bytes) noexcept;

/// Allocator for the hot value blocks: column blocks and bundle attribute
/// blocks. It does three things std::allocator does not:
///  - Aligns every allocation to `Align` bytes (64, one cache line), so
///    SIMD loads never split a line and the AVX2 kernels may use aligned
///    moves on block starts.
///  - Aligns blocks of kHugePageBytes or more to 2 MiB and advises them onto
///    huge pages, so an 80 MB bundle block faults in ~40 pages, not ~20k.
///  - Default-initializes: `resize(n)` and the size constructor leave
///    trivial elements uninitialized. Callers write every element or pass
///    a value (`resize(n, v)`, `assign(n, v)`); copies and push_back are
///    unchanged. The first write then lands on whichever thread fills the
///    block (the pool workers, for bundle generation) instead of a serial
///    zero-fill on the allocating thread.
/// Zero-size allocations still return a unique, aligned pointer (operator
/// new guarantees this).
template <typename T, size_t Align = 64>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T), "Align must not weaken T's alignment");
  static_assert((Align & (Align - 1)) == 0, "Align must be a power of two");
  static_assert(Align <= kHugePageBytes, "huge blocks must honour Align");

  using value_type = T;
  using size_type = size_t;
  using difference_type = ptrdiff_t;
  using propagate_on_container_move_assignment = std::true_type;
  using is_always_equal = std::true_type;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      return static_cast<T*>(::operator new(bytes, std::align_val_t{Align}));
    }
    void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
    AdviseHugePages(p, bytes);
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, std::align_val_t{n * sizeof(T) < kHugePageBytes
                                              ? Align
                                              : kHugePageBytes});
  }

  /// Value-less construction (what resize(n) asks for) default-initializes;
  /// constructions with arguments take std::allocator_traits' default path.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector whose data() is 64-byte aligned (2 MiB-aligned from
/// kHugePageBytes up) and whose resize(n) does not zero. Drop-in
/// replacement for the hot block vectors; iterators/element access are
/// unchanged.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/// True when `p` is aligned to `align` bytes. For debug asserts at kernel
/// entry points.
inline bool IsAligned(const void* p, size_t align) {
  return (reinterpret_cast<uintptr_t>(p) & (align - 1)) == 0;
}

}  // namespace mde

#endif  // MDE_UTIL_ALIGNED_H_
