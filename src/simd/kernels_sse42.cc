#include <immintrin.h>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

/// SSE4.2 tier (2 doubles / 2 uint64 per vector). Compiled with
/// -msse4.2 -ffp-contract=off. The float-heavy kernels use 128-bit vectors;
/// kernels that gain nothing at 128 bits (byte/word bit ops, the
/// partial-word masked adds, the interleaved RNG state walk) reuse the
/// scalar reference — which is bit-identical by the layer's contract, so
/// the table stays a valid tier.
namespace mde::simd::internal {
namespace {

struct Sse2Ops {
  using V = __m128d;
  using U = __m128i;
  static constexpr size_t kWidth = 2;

  static V set1(double c) { return _mm_set1_pd(c); }
  static U load_u(const uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(double* p, V v) { _mm_storeu_pd(p, v); }
  static V sub(V a, V b) { return _mm_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm_mul_pd(a, b); }
  static V from_bits(U a) { return _mm_castsi128_pd(a); }
  static U shr(U a, int k) { return _mm_srli_epi64(a, k); }
  static U or_u(U a, uint64_t c) {
    return _mm_or_si128(a, _mm_set1_epi64x(static_cast<long long>(c)));
  }
};

struct CmpEqV {
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmpeq_pd(a, b); }
};
struct CmpNeV {
  // cmpneq is NEQ_UQ: true when unordered — exactly C++ `!=`.
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmpneq_pd(a, b); }
};
struct CmpLtV {
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmplt_pd(a, b); }
};
struct CmpLeV {
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmple_pd(a, b); }
};
struct CmpGtV {
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmpgt_pd(a, b); }
};
struct CmpGeV {
  static __m128d apply(__m128d a, __m128d b) { return _mm_cmpge_pd(a, b); }
};

template <typename Op>
void CmpF64BitmapSseT(const double* data, size_t n, Cmp op, double lit,
                      uint64_t* out) {
  const __m128d vlit = _mm_set1_pd(lit);
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const double* p = data + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 32; ++g) {
      const int bits =
          _mm_movemask_pd(Op::apply(_mm_loadu_pd(p + g * 2), vlit));
      word |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (g * 2);
    }
    out[w] = word;
  }
  if (full * 64 < n) {
    CmpF64BitmapRef(data + full * 64, n - full * 64, op, lit, out + full);
  }
}

void CmpF64BitmapSse(const double* data, size_t n, Cmp op, double lit,
                     uint64_t* out) {
  switch (op) {
    case Cmp::kEq:
      CmpF64BitmapSseT<CmpEqV>(data, n, op, lit, out);
      break;
    case Cmp::kNe:
      CmpF64BitmapSseT<CmpNeV>(data, n, op, lit, out);
      break;
    case Cmp::kLt:
      CmpF64BitmapSseT<CmpLtV>(data, n, op, lit, out);
      break;
    case Cmp::kLe:
      CmpF64BitmapSseT<CmpLeV>(data, n, op, lit, out);
      break;
    case Cmp::kGt:
      CmpF64BitmapSseT<CmpGtV>(data, n, op, lit, out);
      break;
    case Cmp::kGe:
      CmpF64BitmapSseT<CmpGeV>(data, n, op, lit, out);
      break;
  }
}

void CmpI64RangeBitmapSse(const int64_t* data, size_t n, int64_t lo,
                          int64_t hi, bool negate, uint64_t* out) {
  const __m128i vlo = _mm_set1_epi64x(lo);
  const __m128i vhi = _mm_set1_epi64x(hi);
  const uint64_t flip = negate ? ~uint64_t{0} : 0;
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t outside = 0;
    for (int g = 0; g < 32; ++g) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + g * 2));
      const __m128i m = _mm_or_si128(_mm_cmpgt_epi64(vlo, v),
                                     _mm_cmpgt_epi64(v, vhi));
      const int bits = _mm_movemask_pd(_mm_castsi128_pd(m));
      outside |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (g * 2);
    }
    out[w] = ~outside ^ flip;
  }
  if (full * 64 < n) {
    CmpI64RangeBitmapRef(data + full * 64, n - full * 64, lo, hi, negate,
                         out + full);
  }
}

template <typename Op>
uint64_t CmpF64MaskWordSseT(const double* data, size_t nbits, Cmp op,
                            double lit) {
  const __m128d vlit = _mm_set1_pd(lit);
  uint64_t word = 0;
  size_t b = 0;
  for (; b + 2 <= nbits; b += 2) {
    const int bits = _mm_movemask_pd(Op::apply(_mm_loadu_pd(data + b), vlit));
    word |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << b;
  }
  if (b < nbits) {
    word |= CmpF64MaskWordRef(data + b, nbits - b, op, lit) << b;
  }
  return word;
}

uint64_t CmpF64MaskWordSse(const double* data, size_t nbits, Cmp op,
                           double lit) {
  switch (op) {
    case Cmp::kEq:
      return CmpF64MaskWordSseT<CmpEqV>(data, nbits, op, lit);
    case Cmp::kNe:
      return CmpF64MaskWordSseT<CmpNeV>(data, nbits, op, lit);
    case Cmp::kLt:
      return CmpF64MaskWordSseT<CmpLtV>(data, nbits, op, lit);
    case Cmp::kLe:
      return CmpF64MaskWordSseT<CmpLeV>(data, nbits, op, lit);
    case Cmp::kGt:
      return CmpF64MaskWordSseT<CmpGtV>(data, nbits, op, lit);
    case Cmp::kGe:
      return CmpF64MaskWordSseT<CmpGeV>(data, nbits, op, lit);
  }
  return 0;
}

/// Lane masks for a 2-bit slice of an activity word: entry m has lane l
/// all-one iff bit l of m is set.
alignas(16) constexpr uint64_t kPairMask[4][2] = {
    {0, 0}, {~0ULL, 0}, {0, ~0ULL}, {~0ULL, ~0ULL}};

/// The AVX2 blend scheme at 128 bits: add every lane, keep the old value
/// where the mask bit is clear.
template <bool kCounts>
void MaskedAccumulateSseT(double* sums, double* counts, const double* x,
                          uint64_t mask) {
  const __m128d one = _mm_set1_pd(1.0);
  for (int g = 0; g < 32; ++g, mask >>= 2) {
    const __m128d m = _mm_castsi128_pd(_mm_load_si128(
        reinterpret_cast<const __m128i*>(kPairMask[mask & 0x3])));
    const __m128d s = _mm_loadu_pd(sums + g * 2);
    _mm_storeu_pd(sums + g * 2,
                  _mm_blendv_pd(s, _mm_add_pd(s, _mm_loadu_pd(x + g * 2)), m));
    if constexpr (kCounts) {
      const __m128d c = _mm_loadu_pd(counts + g * 2);
      _mm_storeu_pd(counts + g * 2, _mm_blendv_pd(c, _mm_add_pd(c, one), m));
    }
  }
}

void MaskedAccumulateF64WordSse(double* sums, double* counts, const double* x,
                                uint64_t mask) {
  if (counts != nullptr) {
    MaskedAccumulateSseT<true>(sums, counts, x, mask);
  } else {
    MaskedAccumulateSseT<false>(sums, nullptr, x, mask);
  }
}

void AddConstF64Sse(double* acc, double c, size_t n) {
  const __m128d cv = _mm_set1_pd(c);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(acc + i, _mm_add_pd(_mm_loadu_pd(acc + i), cv));
  }
  for (; i < n; ++i) acc[i] += c;
}

void AffineMapF64Sse(const double* in, size_t n, double scale, double offset,
                     double* out) {
  const __m128d sv = _mm_set1_pd(scale);
  const __m128d ov = _mm_set1_pd(offset);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i,
                  _mm_add_pd(ov, _mm_mul_pd(sv, _mm_loadu_pd(in + i))));
  }
  for (; i < n; ++i) out[i] = offset + scale * in[i];
}

/// The fixed reduction tree is 4-lane-strided; at 128 bits that is two
/// vector accumulators, lanes {0,1} and {2,3}.
double SumF64Sse(const double* x, size_t n) {
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    acc01 = _mm_add_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_add_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  alignas(16) double lane[4];
  _mm_store_pd(lane, acc01);
  _mm_store_pd(lane + 2, acc23);
  for (size_t j = n4; j < n; ++j) lane[j & 3] += x[j];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double MinF64Sse(const double* x, size_t n) {
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  __m128d acc01 = inf;
  __m128d acc23 = inf;
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    acc01 = _mm_min_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_min_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  alignas(16) double lane[4];
  _mm_store_pd(lane, acc01);
  _mm_store_pd(lane + 2, acc23);
  for (size_t j = n4; j < n; ++j) lane[j & 3] = MinLane(lane[j & 3], x[j]);
  return MinLane(MinLane(lane[0], lane[1]), MinLane(lane[2], lane[3]));
}

double MaxF64Sse(const double* x, size_t n) {
  const __m128d ninf = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  __m128d acc01 = ninf;
  __m128d acc23 = ninf;
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    acc01 = _mm_max_pd(acc01, _mm_loadu_pd(x + i));
    acc23 = _mm_max_pd(acc23, _mm_loadu_pd(x + i + 2));
  }
  alignas(16) double lane[4];
  _mm_store_pd(lane, acc01);
  _mm_store_pd(lane + 2, acc23);
  for (size_t j = n4; j < n; ++j) lane[j & 3] = MaxLane(lane[j & 3], x[j]);
  return MaxLane(MaxLane(lane[0], lane[1]), MaxLane(lane[2], lane[3]));
}

void UniformBlockSse(const uint64_t* raw, double* out) {
  UniformBlockT<Sse2Ops>(raw, out);
}

const KernelTable kSse4Table = {
    &CmpF64BitmapSse,
    &CmpI64RangeBitmapSse,
    &CmpU32EqBitmapRef,
    &CmpU8BitmapRef,
    &AndWordsRef,
    &OrWordsRef,
    &AndNotWordsRef,
    &PopcountWordsRef,
    &CmpF64MaskWordSse,
    &MaskedAddF64WordRef,
    &MaskedAddConstF64WordRef,
    &MaskedAccumulateF64WordSse,
    &AddConstF64Sse,
    &AffineMapF64Sse,
    &SumF64Sse,
    &MinF64Sse,
    &MaxF64Sse,
    &RngBlockRef,
    &UniformBlockSse,
    &NormalFastBlockRef,
};

}  // namespace

const KernelTable* Sse4Table() { return &kSse4Table; }

}  // namespace mde::simd::internal
