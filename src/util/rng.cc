#include "util/rng.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/distributions.h"

namespace mde {

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.Next();
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

void Rng::Jump() {
  static constexpr uint64_t kJump[] = {0x180ec6d33cfd0abaULL,
                                       0xd5a61266f0c9392cULL,
                                       0xa9582618e03fc9aaULL,
                                       0x39abdc4529b1661cULL};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      Next();
    }
  }
  s_[0] = s0;
  s_[1] = s1;
  s_[2] = s2;
  s_[3] = s3;
}

Rng Rng::Substream(uint64_t seed, uint64_t index) {
  Rng rng(seed);
  for (uint64_t i = 0; i < index; ++i) rng.Jump();
  return rng;
}

BatchRng::BatchRng(Rng& seeder) {
  for (int l = 0; l < 4; ++l) {
    SplitMix64 sm(seeder.Next());
    for (int w = 0; w < 4; ++w) state_[w * 4 + l] = sm.Next();
  }
  aux_ = Rng(seeder.Next());
}

void BatchRng::SlowPath(const uint64_t* raw, uint64_t miss, double* out) {
  for (; miss != 0; miss &= miss - 1) {
    const int j = std::countr_zero(miss);
    out[j] = NormalZigguratSlow(raw[j], out[j], aux_);
  }
}

void BatchRng::ZigguratBlock(double* out) {
  simd::RngBlock(state_, raw_);
  const NormalZiggurat& z = NormalZigguratTables();
  SlowPath(raw_, simd::NormalFastBlock(raw_, z.x_scaled, z.x + 1, out), out);
}

void BatchRng::RefillUniform() {
  simd::RngBlock(state_, raw_);
  simd::UniformBlock(raw_, uni_);
  upos_ = 0;
}

void BatchRng::RefillNormal() {
  simd::RngBlock(state_, nraw_);
  const NormalZiggurat& z = NormalZigguratTables();
  nmiss_ = simd::NormalFastBlock(nraw_, z.x_scaled, z.x + 1, nfast_);
  npos_ = 0;
}

void BatchRng::TakeNormals(double* out, size_t m) {
  std::memcpy(out, nfast_ + npos_, m * sizeof(double));
  const uint64_t first_m = m == simd::kRngBatch ? ~uint64_t{0}
                                                : (uint64_t{1} << m) - 1;
  SlowPath(nraw_ + npos_, (nmiss_ >> npos_) & first_m, out);
  npos_ += m;
}

double BatchRng::NextUniform() {
  if (upos_ == simd::kRngBatch) RefillUniform();
  return uni_[upos_++];
}

double BatchRng::NextNormal() {
  if (npos_ == simd::kRngBatch) RefillNormal();
  double x;
  TakeNormals(&x, 1);
  return x;
}

void BatchRng::FillUniform(double* out, size_t n) {
  size_t i = 0;
  while (upos_ < simd::kRngBatch && i < n) out[i++] = uni_[upos_++];
  while (n - i >= simd::kRngBatch) {
    simd::RngBlock(state_, raw_);
    simd::UniformBlock(raw_, out + i);
    i += simd::kRngBatch;
  }
  if (i < n) {
    RefillUniform();
    while (i < n) out[i++] = uni_[upos_++];
  }
}

void BatchRng::FillNormal(double* out, size_t n) {
  size_t i = std::min(n, simd::kRngBatch - npos_);
  if (i > 0) TakeNormals(out, i);
  while (n - i >= simd::kRngBatch) {
    ZigguratBlock(out + i);
    i += simd::kRngBatch;
  }
  if (i < n) {
    RefillNormal();
    TakeNormals(out + i, n - i);
  }
}

}  // namespace mde
