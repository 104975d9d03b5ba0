#ifndef MDE_SIMD_SIMD_H_
#define MDE_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// Runtime-dispatched SIMD kernel layer (ROADMAP item 3).
///
/// Three tiers of every kernel — portable scalar, AVX2, AVX-512 (F+VL+DQ) —
/// are selected ONCE at startup from CPUID (overridable with the MDE_SIMD
/// environment variable: "scalar", "avx2" or "avx512", clamped to what the
/// hardware supports). Callers go through the free functions below, which
/// jump through a per-process dispatch table. A tier need not have its own
/// body for every kernel: the AVX-512 tier reuses the AVX2 bodies except for
/// RngBlock and NormalFastBlock, whose 64-bit rotate, arithmetic shift and
/// int64->double convert AVX2 lacks.
///
/// The contract that makes this layer safe to drop under the deterministic
/// execution engine: every kernel produces BITWISE-IDENTICAL output on
/// every tier.
///  - Integer / comparison / bitmap kernels are exact by nature.
///  - Elementwise float kernels (adds, affine maps) perform the same IEEE
///    operation per element; IEEE +,-,*,/,sqrt are correctly rounded, so
///    scalar and vector agree operation-for-operation. FMA contraction is
///    disabled in all kernel translation units (-ffp-contract=off, no
///    -mfma) precisely so the op DAG stays identical.
/// The differential suite (tests/simd_test.cc) sweeps every kernel across
/// tiers x thread counts and asserts equality bit-for-bit.
namespace mde::simd {

/// Dispatch tiers, ordered: higher value = wider vectors. The values are
/// what the `simd.tier` gauge reports; 1 was the retired SSE4.2 tier.
enum class Tier : int { kScalar = 0, kAvx2 = 2, kAvx512 = 3 };

/// Lowercase tier name ("scalar" / "avx2" / "avx512") — stable strings used
/// by ParseTier, the obs runtime label and benchmark context.
const char* TierName(Tier t);

/// Maps a tier name (a TierName string) to its tier, for MDE_SIMD and tool
/// flags. The retired SSE4.2 tier's names ("sse4", "sse4.2", "sse42") map to
/// kScalar, the tier that now runs on such CPUs. Returns false, leaving
/// *out alone, for any other name.
bool ParseTier(std::string_view name, Tier* out);

/// The tier the dispatch table currently points at.
Tier ActiveTier();

/// Best tier this CPU (and this build) supports.
Tier BestSupportedTier();

/// Re-points the dispatch table at `t` (clamped to BestSupportedTier) and
/// refreshes the `simd.tier` gauge. For tests and tools only; not safe to
/// call concurrently with running kernels.
void SetTier(Tier t);

/// Comparison predicate with C++ operator semantics on doubles: ordered
/// (false on NaN operands) except kNe, which is true when either side is
/// NaN — exactly `!=`.
enum class Cmp : int { kEq = 0, kNe, kLt, kLe, kGt, kGe };

/// Kernel identifiers for the per-kernel dispatch counters
/// (`simd.dispatch.<kernel>.<tier>`). Block-level kernels count themselves
/// once per call; word-level kernels are counted by their caller at
/// operator granularity via CountKernel() to keep the per-word path free
/// of counter traffic.
enum class KernelId : int {
  kCmpF64Bitmap = 0,
  kCmpI64RangeBitmap,
  kCmpU32EqBitmap,
  kCmpU8Bitmap,
  kBitmapWords,
  kPopcountWords,
  kCmpF64MaskWord,
  kMaskedAddF64,
  kAffineMapF64,
  kRngBlock,
  kUniformBlock,
  kNormalFastBlock,
  kNumKernels
};

/// Records one dispatch of `k` on the active tier. Cheap (one relaxed
/// fetch_add through a cached handle); still, call it per OPERATOR, not per
/// word.
void CountKernel(KernelId k);

// ---------------------------------------------------------------------------
// Bitmap-producing comparisons (dense, position-addressed).
// `out` receives ceil(n/64) words, fully overwritten; bit j of the bitmap
// corresponds to element j; padding bits of the last word are zero.
// ---------------------------------------------------------------------------

/// bit j = (data[j] op lit), IEEE semantics as documented on Cmp.
void CmpF64Bitmap(const double* data, size_t n, Cmp op, double lit,
                  uint64_t* out);

/// bit j = (lo <= data[j] && data[j] <= hi) XOR negate. Pure int64
/// compares; an empty range (lo > hi) yields all-zero (or all-one when
/// negated). This is the engine's int64-compared-as-double filter: the
/// monotone int64->double conversion turns any double-threshold predicate
/// into an int64 range test (see table/vec_ops.cc).
void CmpI64RangeBitmap(const int64_t* data, size_t n, int64_t lo, int64_t hi,
                       bool negate, uint64_t* out);

/// bit j = (data[j] == code) XOR negate. Dictionary-code equality.
void CmpU32EqBitmap(const uint32_t* data, size_t n, uint32_t code,
                    bool negate, uint64_t* out);

/// bit j = (data[j] != 0) == match_nonzero. Bool-column filter.
void CmpU8Bitmap(const uint8_t* data, size_t n, bool match_nonzero,
                 uint64_t* out);

// ---------------------------------------------------------------------------
// Packed 64-bit bitmap words.
// ---------------------------------------------------------------------------

void AndWords(const uint64_t* a, const uint64_t* b, size_t nwords,
              uint64_t* out);
/// Total set bits.
uint64_t PopcountWords(const uint64_t* w, size_t nwords);

/// Appends the positions of set bits as `base + bit_index`, ascending.
/// `out` must have room for PopcountWords(words, nwords) entries; returns
/// the number written. Selection-vector compaction.
size_t BitmapToSel(const uint64_t* words, size_t nwords, uint32_t base,
                   uint32_t* out);

// ---------------------------------------------------------------------------
// Mask-word kernels for the tuple-bundle executor (mcdb/bundle.cc):
// one packed 64-bit activity word at a time.
// ---------------------------------------------------------------------------

/// Returns the mask with bit b = (data[b] op lit) for b < nbits (<= 64);
/// higher bits zero. Evaluates every lane in [0, nbits), so callers AND the
/// result with the previous activity word.
uint64_t CmpF64MaskWord(const double* data, size_t nbits, Cmp op, double lit);

/// acc[b] += x[b] for every set bit b of mask (bits must address valid
/// elements of both arrays). Each element receives exactly one independent
/// add, so the result is order-invariant and tier-invariant.
void MaskedAddF64Word(double* acc, const double* x, uint64_t mask);

/// acc[b] += c for every set bit b of mask.
void MaskedAddConstF64Word(double* acc, double c, uint64_t mask);

/// For every set bit b of mask: sums[b] += x[b] and, unless counts is
/// nullptr, counts[b] += 1.0 — the fused sum-and-count step of a masked
/// SUM/AVG. Requires a FULL word: all 64 elements of each array must be
/// addressable, because the vector tiers load, add and store every lane
/// and then blend by the expanded mask. A lane whose bit is clear keeps
/// its exact bits (NaN payloads, +-inf, -0.0), and a set lane gets the one
/// IEEE add the reference does, so every tier is bit-identical to it. For
/// a partial last word use the MaskedAdd*Word kernels above.
void MaskedAccumulateF64Word(double* sums, double* counts, const double* x,
                             uint64_t mask);

/// Dense elementwise: acc[i] += c.
void AddConstF64(double* acc, double c, size_t n);

/// Elementwise affine map: out[i] = offset + scale * in[i] (exactly two
/// rounding steps per element, never contracted to FMA). in == out allowed.
void AffineMapF64(const double* in, size_t n, double scale, double offset,
                  double* out);

// ---------------------------------------------------------------------------
// Batched RNG blocks (util/rng.h's BatchRng is the stateful consumer).
// The batch grain is 64 draws — a divisor of table::kVecGrain and exactly
// one activity-bitmap word — fixed across tiers so per-row substreams are
// byte-identical regardless of dispatch tier or thread count.
// ---------------------------------------------------------------------------

inline constexpr size_t kRngBatch = 64;

/// Advances 4 interleaved xoshiro256++ lanes 16 steps each. `state` holds
/// the 16 state words in struct-of-arrays order (word w of lane l at
/// state[w * 4 + l]); `raw` receives the 64 outputs with lane l's s-th
/// output at raw[s * 4 + l].
void RngBlock(uint64_t* state, uint64_t* raw);

/// raw -> uniforms in [0, 1): out[j] = (raw[j] >> 12) * 2^-52. The 52-bit
/// mapping keeps the integer->double conversion exact on every tier.
void UniformBlock(const uint64_t* raw, double* out);

/// The ziggurat's fast path over one raw block (util/distributions.h
/// NormalFromBits is the same map for one word). For each word w = raw[j]:
/// layer i = w & 0xff, k = double(int64(w) >> 11) (exact: |k| <= 2^52),
/// out[j] = k * x_scaled[i], and bit j of the returned mask is set when the
/// fast accept fails, !(|out[j]| < x_edge[i]). `x_scaled` and `x_edge` have
/// 256 entries (the caller passes the ziggurat's x[i] * 2^-52 and x[i+1]).
/// One multiply and one compare per word, so every tier is bit-identical.
/// The slow path (wedge, tail) stays with the caller, which runs it for the
/// set bits in ascending word order.
uint64_t NormalFastBlock(const uint64_t* raw, const double* x_scaled,
                         const double* x_edge, double* out);

}  // namespace mde::simd

#endif  // MDE_SIMD_SIMD_H_
