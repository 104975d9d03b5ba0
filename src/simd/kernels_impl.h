#ifndef MDE_SIMD_KERNELS_IMPL_H_
#define MDE_SIMD_KERNELS_IMPL_H_

#include <bit>
#include <cmath>
#include <cstdint>

#include "simd/simd.h"

/// Scalar reference kernel bodies (*Ref), included by every tier's
/// translation unit. The scalar tier IS these functions; the vector tiers
/// reuse them for sub-lane tails (trivially bit-identical) and for the
/// kernels they have no body of their own for. Every vector body performs
/// the same IEEE operation per element as its *Ref, so every tier produces
/// identical bits — the property the differential suite locks in.
///
/// All TUs including this header are compiled with -ffp-contract=off and
/// without -mfma: a contracted a*b+c rounds once instead of twice and would
/// silently desynchronize tiers.
namespace mde::simd::internal {

// ---------------------------------------------------------------------------
// Scalar comparison semantics (match the AVX2 predicates used by the
// vector tiers: ordered except kNe, which is NEQ_UQ).
// ---------------------------------------------------------------------------

inline bool CmpScalar(double x, Cmp op, double lit) {
  switch (op) {
    case Cmp::kEq:
      return x == lit;
    case Cmp::kNe:
      return x != lit;
    case Cmp::kLt:
      return x < lit;
    case Cmp::kLe:
      return x <= lit;
    case Cmp::kGt:
      return x > lit;
    case Cmp::kGe:
      return x >= lit;
  }
  return false;
}

/// Builds a dense bitmap from pred(j); tail bits zero. `pred` is inlined
/// per instantiation so the scalar tier still compiles to a tight loop.
template <typename Pred>
inline void BuildBitmap(size_t n, uint64_t* out, Pred pred) {
  const size_t nwords = (n + 63) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const size_t base = w * 64;
    const size_t lim = n - base < 64 ? n - base : 64;
    uint64_t word = 0;
    for (size_t b = 0; b < lim; ++b) {
      word |= static_cast<uint64_t>(pred(base + b)) << b;
    }
    out[w] = word;
  }
}

inline void CmpF64BitmapRef(const double* data, size_t n, Cmp op, double lit,
                            uint64_t* out) {
  switch (op) {
    case Cmp::kEq:
      BuildBitmap(n, out, [&](size_t j) { return data[j] == lit; });
      break;
    case Cmp::kNe:
      BuildBitmap(n, out, [&](size_t j) { return data[j] != lit; });
      break;
    case Cmp::kLt:
      BuildBitmap(n, out, [&](size_t j) { return data[j] < lit; });
      break;
    case Cmp::kLe:
      BuildBitmap(n, out, [&](size_t j) { return data[j] <= lit; });
      break;
    case Cmp::kGt:
      BuildBitmap(n, out, [&](size_t j) { return data[j] > lit; });
      break;
    case Cmp::kGe:
      BuildBitmap(n, out, [&](size_t j) { return data[j] >= lit; });
      break;
  }
}

inline void CmpI64RangeBitmapRef(const int64_t* data, size_t n, int64_t lo,
                                 int64_t hi, bool negate, uint64_t* out) {
  if (negate) {
    BuildBitmap(n, out,
                [&](size_t j) { return !(lo <= data[j] && data[j] <= hi); });
  } else {
    BuildBitmap(n, out,
                [&](size_t j) { return lo <= data[j] && data[j] <= hi; });
  }
}

inline void CmpU32EqBitmapRef(const uint32_t* data, size_t n, uint32_t code,
                              bool negate, uint64_t* out) {
  if (negate) {
    BuildBitmap(n, out, [&](size_t j) { return data[j] != code; });
  } else {
    BuildBitmap(n, out, [&](size_t j) { return data[j] == code; });
  }
}

inline void CmpU8BitmapRef(const uint8_t* data, size_t n, bool match_nonzero,
                           uint64_t* out) {
  if (match_nonzero) {
    BuildBitmap(n, out, [&](size_t j) { return data[j] != 0; });
  } else {
    BuildBitmap(n, out, [&](size_t j) { return data[j] == 0; });
  }
}

// ---------------------------------------------------------------------------
// Bitmap words.
// ---------------------------------------------------------------------------

inline void AndWordsRef(const uint64_t* a, const uint64_t* b, size_t nwords,
                        uint64_t* out) {
  for (size_t w = 0; w < nwords; ++w) out[w] = a[w] & b[w];
}

/// Every tier runs this loop, but each compiles it with its own flags:
/// -mavx2 implies POPCNT, so the vector tiers get the popcnt instruction
/// where the baseline scalar TU calls libgcc's __popcountdi2 per word.
inline uint64_t PopcountWordsRef(const uint64_t* w, size_t nwords) {
  uint64_t total = 0;
  for (size_t i = 0; i < nwords; ++i) {
    total += static_cast<uint64_t>(std::popcount(w[i]));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Mask-word float kernels. Each element receives at most one independent
// add, so accumulation order cannot matter — any tier is bit-identical to
// this reference by construction.
// ---------------------------------------------------------------------------

inline uint64_t CmpF64MaskWordRef(const double* data, size_t nbits, Cmp op,
                                  double lit) {
  uint64_t word = 0;
  switch (op) {
    case Cmp::kEq:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] == lit) << b;
      break;
    case Cmp::kNe:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] != lit) << b;
      break;
    case Cmp::kLt:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] < lit) << b;
      break;
    case Cmp::kLe:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] <= lit) << b;
      break;
    case Cmp::kGt:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] > lit) << b;
      break;
    case Cmp::kGe:
      for (size_t b = 0; b < nbits; ++b)
        word |= static_cast<uint64_t>(data[b] >= lit) << b;
      break;
  }
  return word;
}

inline void MaskedAddF64WordRef(double* acc, const double* x, uint64_t mask) {
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int b = std::countr_zero(rest);
    acc[b] += x[b];
  }
}

inline void MaskedAddConstF64WordRef(double* acc, double c, uint64_t mask) {
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    acc[std::countr_zero(rest)] += c;
  }
}

inline void MaskedAccumulateF64WordRef(double* sums, double* counts,
                                       const double* x, uint64_t mask) {
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int b = std::countr_zero(rest);
    sums[b] += x[b];
    if (counts != nullptr) counts[b] += 1.0;
  }
}

inline void AddConstF64Ref(double* acc, double c, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += c;
}

inline void AffineMapF64Ref(const double* in, size_t n, double scale,
                            double offset, double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = offset + scale * in[i];
}

// ---------------------------------------------------------------------------
// RNG block: 4 interleaved xoshiro256++ lanes, 16 steps. Pure integer —
// every tier that follows the lane layout is exact.
// ---------------------------------------------------------------------------

inline uint64_t Rotl64(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

inline void RngBlockRef(uint64_t* state, uint64_t* raw) {
  for (int step = 0; step < 16; ++step) {
    for (int l = 0; l < 4; ++l) {
      uint64_t s0 = state[0 + l];
      uint64_t s1 = state[4 + l];
      uint64_t s2 = state[8 + l];
      uint64_t s3 = state[12 + l];
      raw[step * 4 + l] = Rotl64(s0 + s3, 23) + s0;
      const uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = Rotl64(s3, 45);
      state[0 + l] = s0;
      state[4 + l] = s1;
      state[8 + l] = s2;
      state[12 + l] = s3;
    }
  }
}

/// 64 raw draws -> 64 uniforms in [0, 1): (raw >> 12) * 2^-52. The 52-bit
/// payload is below 2^52, so its conversion to double is exact and the
/// power-of-two scale is exact too; out[j] depends only on raw[j].
inline void UniformBlockRef(const uint64_t* raw, double* out) {
  for (size_t j = 0; j < kRngBatch; ++j) {
    out[j] = static_cast<double>(raw[j] >> 12) * 0x1p-52;
  }
}

// ---------------------------------------------------------------------------
// Ziggurat fast path over a raw block (simd.h NormalFastBlock). The scalar
// and AVX2 tiers run this loop: AVX2 has no 64-bit arithmetic shift or
// int64->double convert, so a vector body would have to emulate both.
// ---------------------------------------------------------------------------

inline uint64_t NormalFastBlockRef(const uint64_t* raw, const double* x_scaled,
                                   const double* x_edge, double* out) {
  uint64_t miss = 0;
  // Unrolled by four: BM_FillNormal/1000 read 1.42 ns per draw on the AVX2
  // tier against 1.53 rolled (2.24 against 2.33 on the scalar tier).
#pragma GCC unroll 4
  for (size_t j = 0; j < kRngBatch; ++j) {
    const size_t i = raw[j] & 0xff;
    const double k = static_cast<double>(static_cast<int64_t>(raw[j]) >> 11);
    const double x = k * x_scaled[i];
    out[j] = x;
    // A branch, not a branch-free OR of the compare: it is taken for ~1.5%
    // of words, and the OR's variable shift made the AVX2 tier's
    // BM_FillNormal/1000 about 20% slower.
    if (!(std::fabs(x) < x_edge[i])) [[unlikely]] miss |= uint64_t{1} << j;
  }
  return miss;
}

}  // namespace mde::simd::internal

#endif  // MDE_SIMD_KERNELS_IMPL_H_
