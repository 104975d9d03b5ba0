#include <immintrin.h>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

/// AVX2 tier (4 doubles / 4 uint64 per vector). Compiled with
/// -mavx2 -ffp-contract=off and WITHOUT -mfma: all float kernels must
/// execute the same rounding steps as the scalar reference. Partial words
/// and sub-lane tails delegate to the *Ref functions, which is bit-exact by
/// definition.
namespace mde::simd::internal {
namespace {

template <int IMM>
void CmpF64BitmapImm(const double* data, size_t n, Cmp op, double lit,
                     uint64_t* out) {
  const __m256d vlit = _mm256_set1_pd(lit);
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const double* p = data + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 16; ++g) {
      const int bits = _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_loadu_pd(p + g * 4), vlit, IMM));
      word |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (g * 4);
    }
    out[w] = word;
  }
  if (full * 64 < n) {
    CmpF64BitmapRef(data + full * 64, n - full * 64, op, lit, out + full);
  }
}

void CmpF64BitmapAvx2(const double* data, size_t n, Cmp op, double lit,
                      uint64_t* out) {
  switch (op) {
    case Cmp::kEq:
      CmpF64BitmapImm<_CMP_EQ_OQ>(data, n, op, lit, out);
      break;
    case Cmp::kNe:
      CmpF64BitmapImm<_CMP_NEQ_UQ>(data, n, op, lit, out);
      break;
    case Cmp::kLt:
      CmpF64BitmapImm<_CMP_LT_OQ>(data, n, op, lit, out);
      break;
    case Cmp::kLe:
      CmpF64BitmapImm<_CMP_LE_OQ>(data, n, op, lit, out);
      break;
    case Cmp::kGt:
      CmpF64BitmapImm<_CMP_GT_OQ>(data, n, op, lit, out);
      break;
    case Cmp::kGe:
      CmpF64BitmapImm<_CMP_GE_OQ>(data, n, op, lit, out);
      break;
  }
}

void CmpI64RangeBitmapAvx2(const int64_t* data, size_t n, int64_t lo,
                           int64_t hi, bool negate, uint64_t* out) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  const uint64_t flip = negate ? ~uint64_t{0} : 0;
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const int64_t* p = data + w * 64;
    uint64_t outside = 0;
    for (int g = 0; g < 16; ++g) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + g * 4));
      // outside-range lanes: v < lo or v > hi.
      const __m256i m = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, v),
                                        _mm256_cmpgt_epi64(v, vhi));
      const int bits = _mm256_movemask_pd(_mm256_castsi256_pd(m));
      outside |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (g * 4);
    }
    out[w] = ~outside ^ flip;
  }
  if (full * 64 < n) {
    CmpI64RangeBitmapRef(data + full * 64, n - full * 64, lo, hi, negate,
                         out + full);
  }
}

void CmpU32EqBitmapAvx2(const uint32_t* data, size_t n, uint32_t code,
                        bool negate, uint64_t* out) {
  const __m256i vcode = _mm256_set1_epi32(static_cast<int>(code));
  const uint64_t flip = negate ? ~uint64_t{0} : 0;
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const uint32_t* p = data + w * 64;
    uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + g * 8));
      const int bits = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, vcode)));
      word |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << (g * 8);
    }
    out[w] = word ^ flip;
  }
  if (full * 64 < n) {
    CmpU32EqBitmapRef(data + full * 64, n - full * 64, code, negate,
                      out + full);
  }
}

void CmpU8BitmapAvx2(const uint8_t* data, size_t n, bool match_nonzero,
                     uint64_t* out) {
  const __m256i zero = _mm256_setzero_si256();
  const uint64_t flip = match_nonzero ? ~uint64_t{0} : 0;
  const size_t full = n / 64;
  for (size_t w = 0; w < full; ++w) {
    const uint8_t* p = data + w * 64;
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32));
    const uint64_t zlo = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, zero)));
    const uint64_t zhi = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(b, zero)));
    // zero-lanes bitmap; nonzero matching flips it.
    out[w] = (zlo | (zhi << 32)) ^ flip;
  }
  if (full * 64 < n) {
    CmpU8BitmapRef(data + full * 64, n - full * 64, match_nonzero, out + full);
  }
}

void AndWordsAvx2(const uint64_t* a, const uint64_t* b, size_t nwords,
                  uint64_t* out) {
  size_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + w),
        _mm256_and_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w))));
  }
  for (; w < nwords; ++w) out[w] = a[w] & b[w];
}

template <int IMM>
uint64_t CmpF64MaskWordImm(const double* data, size_t nbits, Cmp op,
                           double lit) {
  const __m256d vlit = _mm256_set1_pd(lit);
  uint64_t word = 0;
  size_t b = 0;
  for (; b + 4 <= nbits; b += 4) {
    const int bits = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(data + b), vlit, IMM));
    word |= static_cast<uint64_t>(static_cast<unsigned>(bits)) << b;
  }
  if (b < nbits) {
    word |= CmpF64MaskWordRef(data + b, nbits - b, op, lit) << b;
  }
  return word;
}

uint64_t CmpF64MaskWordAvx2(const double* data, size_t nbits, Cmp op,
                            double lit) {
  switch (op) {
    case Cmp::kEq:
      return CmpF64MaskWordImm<_CMP_EQ_OQ>(data, nbits, op, lit);
    case Cmp::kNe:
      return CmpF64MaskWordImm<_CMP_NEQ_UQ>(data, nbits, op, lit);
    case Cmp::kLt:
      return CmpF64MaskWordImm<_CMP_LT_OQ>(data, nbits, op, lit);
    case Cmp::kLe:
      return CmpF64MaskWordImm<_CMP_LE_OQ>(data, nbits, op, lit);
    case Cmp::kGt:
      return CmpF64MaskWordImm<_CMP_GT_OQ>(data, nbits, op, lit);
    case Cmp::kGe:
      return CmpF64MaskWordImm<_CMP_GE_OQ>(data, nbits, op, lit);
  }
  return 0;
}

/// Per-nibble lane masks for maskload/maskstore: entry m has lane l all-one
/// iff bit l of m is set.
alignas(32) constexpr uint64_t kNibbleMask[16][4] = {
    {0, 0, 0, 0},       {~0ULL, 0, 0, 0},
    {0, ~0ULL, 0, 0},   {~0ULL, ~0ULL, 0, 0},
    {0, 0, ~0ULL, 0},   {~0ULL, 0, ~0ULL, 0},
    {0, ~0ULL, ~0ULL, 0},
    {~0ULL, ~0ULL, ~0ULL, 0},
    {0, 0, 0, ~0ULL},   {~0ULL, 0, 0, ~0ULL},
    {0, ~0ULL, 0, ~0ULL},
    {~0ULL, ~0ULL, 0, ~0ULL},
    {0, 0, ~0ULL, ~0ULL},
    {~0ULL, 0, ~0ULL, ~0ULL},
    {0, ~0ULL, ~0ULL, ~0ULL},
    {~0ULL, ~0ULL, ~0ULL, ~0ULL},
};

/// Masked adds via maskload/maskstore, which suppress faults on inactive
/// lanes — safe even when the active bits end mid-vector at the edge of the
/// allocation. Each active element gets exactly one add, so the result
/// equals the scalar bit-iteration bit-for-bit.
void MaskedAddF64WordAvx2(double* acc, const double* x, uint64_t mask) {
  for (int g = 0; mask != 0; ++g, mask >>= 4) {
    const uint32_t nib = static_cast<uint32_t>(mask & 0xF);
    if (nib == 0) continue;
    const __m256i m = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kNibbleMask[nib]));
    const __m256d xv = _mm256_maskload_pd(x + g * 4, m);
    const __m256d av = _mm256_maskload_pd(acc + g * 4, m);
    _mm256_maskstore_pd(acc + g * 4, m, _mm256_add_pd(av, xv));
  }
}

void MaskedAddConstF64WordAvx2(double* acc, double c, uint64_t mask) {
  const __m256d cv = _mm256_set1_pd(c);
  for (int g = 0; mask != 0; ++g, mask >>= 4) {
    const uint32_t nib = static_cast<uint32_t>(mask & 0xF);
    if (nib == 0) continue;
    const __m256i m = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kNibbleMask[nib]));
    const __m256d av = _mm256_maskload_pd(acc + g * 4, m);
    _mm256_maskstore_pd(acc + g * 4, m, _mm256_add_pd(av, cv));
  }
}

/// One blend per 4-lane group: every lane is loaded, added and stored, and
/// the nibble's lane mask picks the sum for set bits and the old value for
/// clear ones. Branch-free, so a random mask costs the same as a full one.
template <bool kCounts>
void MaskedAccumulateAvx2T(double* sums, double* counts, const double* x,
                           uint64_t mask) {
  const __m256d one = _mm256_set1_pd(1.0);
  for (int g = 0; g < 16; ++g, mask >>= 4) {
    const __m256d m = _mm256_castsi256_pd(_mm256_load_si256(
        reinterpret_cast<const __m256i*>(kNibbleMask[mask & 0xF])));
    const __m256d s = _mm256_loadu_pd(sums + g * 4);
    _mm256_storeu_pd(
        sums + g * 4,
        _mm256_blendv_pd(s, _mm256_add_pd(s, _mm256_loadu_pd(x + g * 4)), m));
    if constexpr (kCounts) {
      const __m256d c = _mm256_loadu_pd(counts + g * 4);
      _mm256_storeu_pd(counts + g * 4,
                       _mm256_blendv_pd(c, _mm256_add_pd(c, one), m));
    }
  }
}

void MaskedAccumulateF64WordAvx2(double* sums, double* counts,
                                 const double* x, uint64_t mask) {
  if (counts != nullptr) {
    MaskedAccumulateAvx2T<true>(sums, counts, x, mask);
  } else {
    MaskedAccumulateAvx2T<false>(sums, nullptr, x, mask);
  }
}

void AddConstF64Avx2(double* acc, double c, size_t n) {
  const __m256d cv = _mm256_set1_pd(c);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), cv));
  }
  for (; i < n; ++i) acc[i] += c;
}

void AffineMapF64Avx2(const double* in, size_t n, double scale, double offset,
                      double* out) {
  const __m256d sv = _mm256_set1_pd(scale);
  const __m256d ov = _mm256_set1_pd(offset);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(ov, _mm256_mul_pd(sv, _mm256_loadu_pd(in + i))));
  }
  for (; i < n; ++i) out[i] = offset + scale * in[i];
}

inline __m256i Rotl256(__m256i v, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(v, k), _mm256_srli_epi64(v, 64 - k));
}

void RngBlockAvx2(uint64_t* state, uint64_t* raw) {
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 8));
  __m256i s3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 12));
  for (int step = 0; step < 16; ++step) {
    const __m256i res =
        _mm256_add_epi64(Rotl256(_mm256_add_epi64(s0, s3), 23), s0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(raw + step * 4), res);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = Rotl256(s3, 45);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 4), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 8), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 12), s3);
}

/// UniformBlockRef four words at a time. AVX2 has no int64->double
/// convert, so the 52-bit payload is OR-ed into the mantissa of 2^52 and
/// 2^52 subtracted: both steps are exact, so the bits match the reference.
void UniformBlockAvx2(const uint64_t* raw, double* out) {
  const __m256i exponent = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256d scale = _mm256_set1_pd(0x1p-52);
  for (size_t j = 0; j < kRngBatch; j += 4) {
    const __m256i y = _mm256_srli_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + j)), 12);
    const __m256d d =
        _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(y, exponent)), two52);
    _mm256_storeu_pd(out + j, _mm256_mul_pd(d, scale));
  }
}

const KernelTable kAvx2Table = {
    &CmpF64BitmapAvx2,
    &CmpI64RangeBitmapAvx2,
    &CmpU32EqBitmapAvx2,
    &CmpU8BitmapAvx2,
    &AndWordsAvx2,
    &PopcountWordsRef,
    &CmpF64MaskWordAvx2,
    &MaskedAddF64WordAvx2,
    &MaskedAddConstF64WordAvx2,
    &MaskedAccumulateF64WordAvx2,
    &AddConstF64Avx2,
    &AffineMapF64Avx2,
    &RngBlockAvx2,
    &UniformBlockAvx2,
    &NormalFastBlockRef,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace mde::simd::internal
