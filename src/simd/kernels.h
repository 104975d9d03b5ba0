#ifndef MDE_SIMD_KERNELS_H_
#define MDE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

/// Internal dispatch plumbing. Each tier provides one KernelTable of plain
/// function pointers; dispatch.cc selects the table once on first use (and
/// on SetTier). The public functions in simd.h are thin wrappers in
/// dispatch.cc that jump through ActiveTable().
namespace mde::simd::internal {

struct KernelTable {
  void (*cmp_f64_bitmap)(const double*, size_t, Cmp, double, uint64_t*);
  void (*cmp_i64_range_bitmap)(const int64_t*, size_t, int64_t, int64_t, bool,
                               uint64_t*);
  void (*cmp_u32_eq_bitmap)(const uint32_t*, size_t, uint32_t, bool,
                            uint64_t*);
  void (*cmp_u8_bitmap)(const uint8_t*, size_t, bool, uint64_t*);
  void (*and_words)(const uint64_t*, const uint64_t*, size_t, uint64_t*);
  uint64_t (*popcount_words)(const uint64_t*, size_t);
  uint64_t (*cmp_f64_mask_word)(const double*, size_t, Cmp, double);
  void (*masked_add_f64_word)(double*, const double*, uint64_t);
  void (*masked_add_const_f64_word)(double*, double, uint64_t);
  void (*masked_accumulate_f64_word)(double*, double*, const double*,
                                     uint64_t);
  void (*add_const_f64)(double*, double, size_t);
  void (*affine_map_f64)(const double*, size_t, double, double, double*);
  void (*rng_block)(uint64_t*, uint64_t*);
  void (*uniform_block)(const uint64_t*, double*);
  uint64_t (*normal_fast_block)(const uint64_t*, const double*, const double*,
                                double*);
};

/// The scalar table always exists; the vector tables exist only in builds
/// that compile the vector TUs (x86-64, MDE_SIMD_FORCE_SCALAR off).
const KernelTable* ScalarTable();
#ifndef MDE_SIMD_SCALAR_ONLY
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();
#endif

/// The table the process currently dispatches through. Lazily initialized
/// (function-local static) from CPUID + MDE_SIMD, so there is no static
/// initialization order hazard for kernels called during other TUs' init.
const KernelTable& ActiveTable();

}  // namespace mde::simd::internal

#endif  // MDE_SIMD_KERNELS_H_
