#include <immintrin.h>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

/// AVX-512 tier (F + VL + DQ). Compiled with
/// -mavx512f -mavx512vl -mavx512dq -ffp-contract=off and WITHOUT -mfma.
/// Only two kernels have their own body here; the table reuses the AVX2
/// tier for everything else. What AVX-512 adds to them is a 64-bit rotate
/// (vprolq), a 64-bit arithmetic shift (vpsraq) and an int64->double
/// convert (vcvtqq2pd), all exact integer operations, so both bodies are
/// bit-identical to the scalar reference.
namespace mde::simd::internal {
namespace {

/// RngBlockAvx2 with each rotate as one vprolq instead of shift+shift+or.
/// The four lanes stay in one ymm register per state word: the lane layout
/// is part of the stream, so a zmm could not hold more lanes.
void RngBlockAvx512(uint64_t* state, uint64_t* raw) {
  __m256i s0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state));
  __m256i s1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 4));
  __m256i s2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 8));
  __m256i s3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state + 12));
  for (int step = 0; step < 16; ++step) {
    const __m256i res =
        _mm256_add_epi64(_mm256_rol_epi64(_mm256_add_epi64(s0, s3), 23), s0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(raw + step * 4), res);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = _mm256_rol_epi64(s3, 45);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state), s0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 4), s1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 8), s2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + 12), s3);
}

/// NormalFastBlockRef, four words per ymm (AVX-512VL): vpsraq + vcvtqq2pd
/// give k, two gathers fetch the layer's scale and edge, and the miss bits
/// come straight out of a k-mask compare (NLT_UQ is !(|x| < edge)). Eight
/// words per zmm measured slower: BM_FillNormal/1000 1.19-1.30 us against
/// 1.14-1.19 us.
uint64_t NormalFastBlockAvx512(const uint64_t* raw, const double* x_scaled,
                               const double* x_edge, double* out) {
  const __m256i layer_bits = _mm256_set1_epi64x(0xff);
  const __m256i abs_bits = _mm256_set1_epi64x(0x7fffffffffffffffLL);
  uint64_t miss = 0;
  for (size_t j = 0; j < kRngBatch; j += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(raw + j));
    const __m256i layer = _mm256_and_si256(w, layer_bits);
    const __m256d k = _mm256_cvtepi64_pd(_mm256_srai_epi64(w, 11));
    const __m256d x =
        _mm256_mul_pd(k, _mm256_i64gather_pd(x_scaled, layer, 8));
    _mm256_storeu_pd(out + j, x);
    const __m256d ax = _mm256_castsi256_pd(
        _mm256_and_si256(_mm256_castpd_si256(x), abs_bits));
    const __mmask8 m = _mm256_cmp_pd_mask(
        ax, _mm256_i64gather_pd(x_edge, layer, 8), _CMP_NLT_UQ);
    miss |= static_cast<uint64_t>(m) << j;
  }
  return miss;
}

}  // namespace

const KernelTable* Avx512Table() {
  static const KernelTable table = [] {
    KernelTable t = *Avx2Table();
    t.rng_block = &RngBlockAvx512;
    t.normal_fast_block = &NormalFastBlockAvx512;
    return t;
  }();
  return &table;
}

}  // namespace mde::simd::internal
