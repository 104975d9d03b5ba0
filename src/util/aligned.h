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

/// The allocation path for blocks of kHugePageBytes or more, shared by
/// every AlignedAllocator instantiation. A freed huge block is parked in
/// one process-wide slot instead of going back to the OS, so the next
/// bundle block of the same size or smaller reuses pages that are already
/// faulted in rather than paying mmap, page faults, kernel zeroing and
/// munmap again:
///  - AllocateHugeBlock takes the parked block when its capacity covers
///    `bytes`; otherwise it releases the parked block first, then allocates
///    fresh: 2 MiB-aligned and advised onto transparent huge pages.
///  - FreeHugeBlock parks the block, releasing whichever of it and the
///    previously parked block is smaller. At most one block is ever parked.
/// Every live huge block remembers its true capacity, so a large block
/// serving a smaller request is reused at full size after it is freed.
/// Under AddressSanitizer the parked block is poisoned, and a reused one
/// reads as 0xbe bytes, the fill CI's ASan job asks for fresh allocations
/// (malloc_fill_byte=190). Thread-safe.
void* AllocateHugeBlock(size_t bytes);
void FreeHugeBlock(void* p) noexcept;

/// Capacity in bytes of the parked huge block, 0 when the slot is empty.
/// For tests.
size_t ParkedHugeBlockBytes();

/// Allocator for the hot value blocks: column blocks and bundle attribute
/// blocks. It does three things std::allocator does not:
///  - Aligns every allocation to `Align` bytes (64, one cache line), so
///    SIMD loads never split a line and the AVX2 kernels may use aligned
///    moves on block starts.
///  - Aligns blocks of kHugePageBytes or more to 2 MiB and advises them onto
///    huge pages, so an 80 MB bundle block faults in ~40 pages, not ~20k.
///    Those blocks are recycled through AllocateHugeBlock/FreeHugeBlock.
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
    return static_cast<T*>(AllocateHugeBlock(bytes));
  }
  void deallocate(T* p, size_t n) noexcept {
    if (n * sizeof(T) < kHugePageBytes) {
      ::operator delete(p, std::align_val_t{Align});
    } else {
      FreeHugeBlock(p);
    }
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
