#ifndef MDE_UTIL_RNG_H_
#define MDE_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace mde {

/// SplitMix64's output for state `x`: the golden-ratio step, then the
/// finalizer. Also the project's cheap, well-mixed 64-bit hash (column
/// statistics, hash-join and group-by keys); inline because the key-index
/// hash path calls it once per row.
inline uint64_t SplitMix64Hash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// SplitMix64: used to seed Xoshiro state from a single 64-bit seed.
/// Reference: Vigna, http://prng.di.unimi.it/splitmix64.c.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    const uint64_t z = SplitMix64Hash(state_);
    state_ += 0x9e3779b97f4a7c15ULL;
    return z;
  }

 private:
  uint64_t state_;
};

/// Xoshiro256++ pseudorandom generator. Fast, high-quality, with a 2^256-1
/// period and an efficient jump function that partitions the stream into
/// 2^128 non-overlapping substreams — the property we rely on for
/// reproducible parallel Monte Carlo (each worker/replication gets its own
/// substream). Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x1234abcd5678efULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 random bits. Inline, like NextDouble(): the scalar samplers
  /// and every per-row transition call them once per draw.
  result_type operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits at full double precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) with no modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  /// Advances this generator by 2^128 steps. Calling Jump() k times on a
  /// fresh generator yields the start of substream k.
  void Jump();

  /// Returns a generator positioned at substream `index` relative to `seed`:
  /// equivalent to seeding then calling Jump() `index` times, but documents
  /// intent at call sites that fan out replications.
  static Rng Substream(uint64_t seed, uint64_t index);

  /// Returns the generator of stream `key` under `seed`, seeded from
  /// seed ^ (golden + key * 2654435761). Setup is O(1) for any key, but
  /// the streams are only statistically independent: nothing guarantees
  /// two never overlap. Use it for one stream per row or per replicate,
  /// where keys run high and setup cost matters; use Substream, whose
  /// setup costs `index` jumps, where streams must be disjoint 2^128-draw
  /// blocks.
  static Rng Keyed(uint64_t seed, uint64_t key) {
    return Rng(seed ^ (0x9e3779b97f4a7c15ULL + key * 2654435761ULL));
  }

  /// The four Xoshiro256++ state words. Exporting and re-importing the
  /// state positions a generator exactly where it was — the basis of the
  /// checkpoint/restart layer's bit-identical replay (src/ckpt).
  using State = std::array<uint64_t, 4>;
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const State& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Batched variate generator over the SIMD kernel layer: four interleaved
/// xoshiro256++ lanes advanced simd::kRngBatch (= 64) draws at a time by
/// the dispatched RngBlock kernel. A block's raw words become uniforms
/// (UniformBlock) or standard normals by the ziggurat SampleStandardNormal
/// uses: raw word j is the first attempt of normal j. The NormalFastBlock
/// kernel maps the whole block and marks the words its fast accept
/// rejected (about 1.5%); those continue (wedge, tail, restarts) on a
/// private scalar Rng, in ascending word order. Both kernels are bitwise
/// identical on every dispatch tier (see simd/simd.h), so the produced
/// stream is a pure function of the seeding Rng and the sequence of calls —
/// independent of dispatch tier and of how consumers chunk their Fill
/// requests.
///
/// This is deliberately NOT the same stream as Rng::NextDouble() or the
/// scalar one-at-a-time samplers; consumers switching to BatchRng change
/// their sampled values (but not their distribution). Within BatchRng the
/// stream is stable and reproducible.
class BatchRng {
 public:
  /// Draws exactly five values from `seeder` (advancing it
  /// deterministically): the first four seed the lanes, each expanded to a
  /// lane state via SplitMix64, and the fifth seeds the scalar Rng that
  /// the ziggurat's slow path draws from.
  explicit BatchRng(Rng& seeder);

  /// Next uniform draw in [0, 1).
  double NextUniform();
  /// Next standard normal draw.
  double NextNormal();

  /// Fills out[0..n) with the next n uniforms in [0, 1). Full 64-draw
  /// blocks are written directly to `out`; partial blocks go through an
  /// internal buffer, so chunking does not change the stream.
  void FillUniform(double* out, size_t n);
  /// Fills out[0..n) with the next n standard normals.
  void FillNormal(double* out, size_t n);

 private:
  void RefillUniform();
  void RefillNormal();
  /// The next raw block mapped to 64 normals in out[0..64).
  void ZigguratBlock(double* out);
  /// Moves the open normal block's next m (<= what is left) normals to out.
  void TakeNormals(double* out, size_t m);
  /// For each set bit j of `miss`, ascending: the slow path of raw word
  /// raw[j], whose fast-path x is in out[j], replaces out[j].
  void SlowPath(const uint64_t* raw, uint64_t miss, double* out);

  alignas(64) uint64_t state_[16];  // lane l word w at state_[w * 4 + l]
  alignas(64) uint64_t raw_[simd::kRngBatch];
  alignas(64) double uni_[simd::kRngBatch];
  // The open normal block: its raw words, their fast-path values and the
  // mask of words that missed the fast accept. A missed word's slow path
  // runs when it is consumed, so aux_ is drawn in word order and a Fill
  // that ends mid-block draws nothing for words it does not return.
  alignas(64) uint64_t nraw_[simd::kRngBatch];
  alignas(64) double nfast_[simd::kRngBatch];
  uint64_t nmiss_ = 0;
  size_t upos_ = simd::kRngBatch;  // buffer drained
  size_t npos_ = simd::kRngBatch;
  Rng aux_;  // the ziggurat's wedge and tail uniforms
};

}  // namespace mde

#endif  // MDE_UTIL_RNG_H_
