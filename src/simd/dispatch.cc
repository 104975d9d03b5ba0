#include <bit>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/export.h"
#include "simd/kernels.h"
#include "simd/simd.h"

namespace mde::simd {
namespace {

using internal::KernelTable;

/// Stable kernel names, in KernelId order — the `<kernel>` segment of the
/// `simd.dispatch.<kernel>.<tier>` counters.
constexpr const char* kKernelNames[] = {
    "cmp_f64_bitmap", "cmp_i64_range_bitmap", "cmp_u32_eq_bitmap",
    "cmp_u8_bitmap",  "bitmap_words",         "popcount_words",
    "cmp_f64_mask",   "masked_add_f64",       "affine_map_f64",
    "rng_block",      "uniform_block",        "normal_fast_block",
};
static_assert(sizeof(kKernelNames) / sizeof(kKernelNames[0]) ==
              static_cast<size_t>(KernelId::kNumKernels));

const KernelTable* TableFor(Tier t) {
#ifndef MDE_SIMD_SCALAR_ONLY
  switch (t) {
    case Tier::kAvx512:
      return internal::Avx512Table();
    case Tier::kAvx2:
      return internal::Avx2Table();
    case Tier::kScalar:
      break;
  }
#else
  (void)t;
#endif
  return internal::ScalarTable();
}

/// Parses MDE_SIMD; anything unrecognized (or unset) means "best".
Tier RequestedTier() {
  const char* env = std::getenv("MDE_SIMD");
  Tier t = BestSupportedTier();
  if (env != nullptr) ParseTier(env, &t);
  return t;
}

struct DispatchState {
  const KernelTable* table = nullptr;
  Tier tier = Tier::kScalar;
  obs::Counter* counters[static_cast<size_t>(KernelId::kNumKernels)] = {};

  void Apply(Tier t) {
    if (static_cast<int>(t) > static_cast<int>(BestSupportedTier())) {
      t = BestSupportedTier();
    }
    tier = t;
    table = TableFor(t);
    const std::string prefix = "simd.dispatch.";
    const std::string suffix = std::string(".") + TierName(t);
    for (size_t k = 0; k < static_cast<size_t>(KernelId::kNumKernels); ++k) {
      counters[k] =
          obs::Registry::Global().counter(prefix + kKernelNames[k] + suffix);
    }
    MDE_OBS_GAUGE_SET("simd.tier", static_cast<int>(t));
    // Name flows INTO obs (obs sits below simd in the layering) so
    // mde_build_info and /statusz can report the active tier by name.
    obs::SetRuntimeLabel("simd_tier", TierName(t));
  }

  DispatchState() { Apply(RequestedTier()); }
};

DispatchState& State() {
  static DispatchState s;
  return s;
}

inline const KernelTable& T() { return *State().table; }

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

bool ParseTier(std::string_view name, Tier* out) {
  if (name == "scalar" || name == "sse4" || name == "sse4.2" ||
      name == "sse42") {
    *out = Tier::kScalar;
  } else if (name == "avx2") {
    *out = Tier::kAvx2;
  } else if (name == "avx512") {
    *out = Tier::kAvx512;
  } else {
    return false;
  }
  return true;
}

Tier BestSupportedTier() {
#if defined(MDE_SIMD_SCALAR_ONLY) || !defined(__x86_64__)
  return Tier::kScalar;
#else
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512dq")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
  return Tier::kScalar;
#endif
}

Tier ActiveTier() { return State().tier; }

void SetTier(Tier t) { State().Apply(t); }

void CountKernel(KernelId k) {
  State().counters[static_cast<size_t>(k)]->Add(1);
}

namespace internal {
const KernelTable& ActiveTable() { return T(); }
}  // namespace internal

// ---------------------------------------------------------------------------
// Public kernel entry points. Block-level kernels (called once per chunk or
// per 64-draw batch) count themselves; word-level kernels are counted by
// their caller at operator granularity.
// ---------------------------------------------------------------------------

void CmpF64Bitmap(const double* data, size_t n, Cmp op, double lit,
                  uint64_t* out) {
  CountKernel(KernelId::kCmpF64Bitmap);
  T().cmp_f64_bitmap(data, n, op, lit, out);
}

void CmpI64RangeBitmap(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                       bool negate, uint64_t* out) {
  CountKernel(KernelId::kCmpI64RangeBitmap);
  T().cmp_i64_range_bitmap(data, n, lo, hi, negate, out);
}

void CmpU32EqBitmap(const uint32_t* data, size_t n, uint32_t code, bool negate,
                    uint64_t* out) {
  CountKernel(KernelId::kCmpU32EqBitmap);
  T().cmp_u32_eq_bitmap(data, n, code, negate, out);
}

void CmpU8Bitmap(const uint8_t* data, size_t n, bool match_nonzero,
                 uint64_t* out) {
  CountKernel(KernelId::kCmpU8Bitmap);
  T().cmp_u8_bitmap(data, n, match_nonzero, out);
}

void AndWords(const uint64_t* a, const uint64_t* b, size_t nwords,
              uint64_t* out) {
  CountKernel(KernelId::kBitmapWords);
  T().and_words(a, b, nwords, out);
}

uint64_t PopcountWords(const uint64_t* w, size_t nwords) {
  CountKernel(KernelId::kPopcountWords);
  return T().popcount_words(w, nwords);
}

size_t BitmapToSel(const uint64_t* words, size_t nwords, uint32_t base,
                   uint32_t* out) {
  size_t k = 0;
  for (size_t w = 0; w < nwords; ++w) {
    uint64_t rest = words[w];
    const uint32_t wbase = base + static_cast<uint32_t>(w * 64);
    while (rest != 0) {
      out[k++] = wbase + static_cast<uint32_t>(std::countr_zero(rest));
      rest &= rest - 1;
    }
  }
  return k;
}

uint64_t CmpF64MaskWord(const double* data, size_t nbits, Cmp op, double lit) {
  return T().cmp_f64_mask_word(data, nbits, op, lit);
}

void MaskedAddF64Word(double* acc, const double* x, uint64_t mask) {
  T().masked_add_f64_word(acc, x, mask);
}

void MaskedAddConstF64Word(double* acc, double c, uint64_t mask) {
  T().masked_add_const_f64_word(acc, c, mask);
}

void MaskedAccumulateF64Word(double* sums, double* counts, const double* x,
                             uint64_t mask) {
  T().masked_accumulate_f64_word(sums, counts, x, mask);
}

void AddConstF64(double* acc, double c, size_t n) {
  T().add_const_f64(acc, c, n);
}

void AffineMapF64(const double* in, size_t n, double scale, double offset,
                  double* out) {
  CountKernel(KernelId::kAffineMapF64);
  T().affine_map_f64(in, n, scale, offset, out);
}

void RngBlock(uint64_t* state, uint64_t* raw) {
  CountKernel(KernelId::kRngBlock);
  T().rng_block(state, raw);
}

void UniformBlock(const uint64_t* raw, double* out) {
  CountKernel(KernelId::kUniformBlock);
  T().uniform_block(raw, out);
}

uint64_t NormalFastBlock(const uint64_t* raw, const double* x_scaled,
                         const double* x_edge, double* out) {
  CountKernel(KernelId::kNormalFastBlock);
  return T().normal_fast_block(raw, x_scaled, x_edge, out);
}

}  // namespace mde::simd
