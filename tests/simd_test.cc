#include "simd/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "mcdb/bundle.h"
#include "obs/metrics.h"
#include "table/vec_ops.h"
#include "util/aligned.h"
#include "util/distributions.h"
#include "util/rng.h"

/// Differential suite for the runtime-dispatched SIMD layer: every kernel,
/// on every tier this machine supports, must produce BITWISE-identical
/// results to the portable scalar reference — including NaN handling, empty
/// inputs, sub-lane lengths and lengths that are not a multiple of the
/// vector width or of 64.
namespace mde {
namespace {

using simd::Cmp;
using simd::Tier;

// The batch/grain invariants the bitmap word layout depends on
// (satellite: pool chunk and bundle row-grain boundaries may never tear a
// 64-bit activity/validity word).
static_assert(table::kVecGrain % 64 == 0);
static_assert(mcdb::BundleTable::kRowGrain % 64 == 0);
static_assert(table::kVecGrain % simd::kRngBatch == 0);
static_assert(simd::kRngBatch == 64);

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar};
  const int best = static_cast<int>(simd::BestSupportedTier());
  if (best >= static_cast<int>(Tier::kAvx2)) tiers.push_back(Tier::kAvx2);
  if (best >= static_cast<int>(Tier::kAvx512)) tiers.push_back(Tier::kAvx512);
  return tiers;
}

/// Runs `fn` once per available tier with the dispatch table pinned to it;
/// restores the best tier afterwards.
template <typename Fn>
void ForEachTier(Fn&& fn) {
  for (Tier t : AvailableTiers()) {
    simd::SetTier(t);
    ASSERT_EQ(simd::ActiveTier(), t);
    fn(t);
  }
  simd::SetTier(simd::BestSupportedTier());
}

/// Interesting lengths: empty, below any lane width, straddling one vector,
/// straddling one 64-bit word, non-multiples of both, and chunk-sized.
const size_t kLens[] = {0, 1, 3, 5, 63, 64, 65, 127, 128, 130, 1000, 4096, 4131};

std::vector<double> RandomDoubles(size_t n, uint64_t seed, bool with_nan) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (rng.NextDouble() - 0.5) * 100.0;
    if (with_nan && rng.NextBounded(13) == 0) {
      v[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return v;
}

bool BitEq(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(SimdDispatchTest, TierNamesAndClamping) {
  EXPECT_STREQ(simd::TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::TierName(Tier::kAvx2), "avx2");
  EXPECT_STREQ(simd::TierName(Tier::kAvx512), "avx512");
  // Requesting more than the hardware supports clamps.
  simd::SetTier(Tier::kAvx512);
  EXPECT_LE(static_cast<int>(simd::ActiveTier()),
            static_cast<int>(simd::BestSupportedTier()));
  simd::SetTier(Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), Tier::kScalar);
  simd::SetTier(simd::BestSupportedTier());
}

TEST(SimdDispatchTest, ParseTierMapsEveryNameAndTheGaugeKeepsItsValues) {
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    Tier parsed = t == Tier::kScalar ? Tier::kAvx2 : Tier::kScalar;
    ASSERT_TRUE(simd::ParseTier(simd::TierName(t), &parsed))
        << simd::TierName(t);
    EXPECT_EQ(parsed, t) << simd::TierName(t);
  }
  // The retired SSE4.2 tier's names select scalar, not the best tier.
  for (const char* legacy : {"sse4", "sse4.2", "sse42"}) {
    Tier parsed = Tier::kAvx512;
    ASSERT_TRUE(simd::ParseTier(legacy, &parsed)) << legacy;
    EXPECT_EQ(parsed, Tier::kScalar) << legacy;
  }
  for (const char* bad : {"", "AVX2", "avx", "sse2", "avx512f", "scalar "}) {
    Tier parsed = Tier::kAvx2;
    EXPECT_FALSE(simd::ParseTier(bad, &parsed)) << '"' << bad << '"';
    EXPECT_EQ(parsed, Tier::kAvx2) << "a rejected name leaves *out alone";
  }

  // simd.tier reports the tier's numeric value; 1 (the SSE4.2 tier) is
  // retired, so dashboards reading 0/2/3 keep their meaning.
  const obs::Gauge* gauge = obs::Registry::Global().gauge("simd.tier");
  const std::pair<Tier, double> kGaugeValues[] = {
      {Tier::kScalar, 0.0}, {Tier::kAvx2, 2.0}, {Tier::kAvx512, 3.0}};
  for (const auto& [t, value] : kGaugeValues) {
    if (static_cast<int>(t) > static_cast<int>(simd::BestSupportedTier())) {
      continue;
    }
    simd::SetTier(t);
    EXPECT_EQ(gauge->Value(), value) << simd::TierName(t);
  }
  simd::SetTier(simd::BestSupportedTier());
}

TEST(SimdKernelTest, CmpF64BitmapMatchesScalarOnEveryTier) {
  for (size_t n : kLens) {
    const std::vector<double> data = RandomDoubles(n, 0xabc + n, true);
    const double lit = 7.25;
    for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
      const size_t nwords = (n + 63) / 64;
      std::vector<uint64_t> ref(nwords, 0xdeadbeefULL);
      simd::SetTier(Tier::kScalar);
      simd::CmpF64Bitmap(data.data(), n, op, lit, ref.data());
      // Scalar result itself must equal the C++ operator element by element.
      for (size_t j = 0; j < n; ++j) {
        const double x = data[j];
        bool expect = false;
        switch (op) {
          case Cmp::kEq: expect = x == lit; break;
          case Cmp::kNe: expect = x != lit; break;
          case Cmp::kLt: expect = x < lit; break;
          case Cmp::kLe: expect = x <= lit; break;
          case Cmp::kGt: expect = x > lit; break;
          case Cmp::kGe: expect = x >= lit; break;
        }
        ASSERT_EQ((ref[j / 64] >> (j % 64)) & 1, expect ? 1u : 0u)
            << "n=" << n << " j=" << j;
      }
      if (n % 64 != 0) {
        ASSERT_EQ(ref.back() >> (n % 64), 0u) << "padding bits must be zero";
      }
      ForEachTier([&](Tier t) {
        std::vector<uint64_t> out(nwords, 0x12345678ULL);
        simd::CmpF64Bitmap(data.data(), n, op, lit, out.data());
        ASSERT_EQ(out, ref) << "tier=" << simd::TierName(t) << " n=" << n
                            << " op=" << static_cast<int>(op);
      });
    }
  }
}

TEST(SimdKernelTest, CmpI64RangeBitmapMatchesScalarOnEveryTier) {
  for (size_t n : kLens) {
    Rng rng(0x5151 + n);
    std::vector<int64_t> data(n);
    for (auto& v : data) {
      v = static_cast<int64_t>(rng.Next() % 2001) - 1000;
    }
    const size_t nwords = (n + 63) / 64;
    struct Case { int64_t lo, hi; bool neg; };
    const Case cases[] = {{-100, 250, false}, {-100, 250, true},
                          {5, 5, false},      {10, -10, false},
                          {10, -10, true}};
    for (const Case& c : cases) {
      std::vector<uint64_t> ref(nwords);
      simd::SetTier(Tier::kScalar);
      simd::CmpI64RangeBitmap(data.data(), n, c.lo, c.hi, c.neg, ref.data());
      for (size_t j = 0; j < n; ++j) {
        const bool expect = (c.lo <= data[j] && data[j] <= c.hi) != c.neg;
        ASSERT_EQ((ref[j / 64] >> (j % 64)) & 1, expect ? 1u : 0u);
      }
      ForEachTier([&](Tier t) {
        std::vector<uint64_t> out(nwords, ~0ULL);
        simd::CmpI64RangeBitmap(data.data(), n, c.lo, c.hi, c.neg, out.data());
        ASSERT_EQ(out, ref) << "tier=" << simd::TierName(t) << " n=" << n;
      });
    }
  }
}

TEST(SimdKernelTest, CmpU32AndU8BitmapsMatchScalarOnEveryTier) {
  for (size_t n : kLens) {
    Rng rng(0x7777 + n);
    std::vector<uint32_t> codes(n);
    std::vector<uint8_t> bytes(n);
    for (size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint32_t>(rng.NextBounded(5));
      bytes[i] = static_cast<uint8_t>(rng.NextBounded(2));
    }
    const size_t nwords = (n + 63) / 64;
    for (bool negate : {false, true}) {
      std::vector<uint64_t> ref(nwords);
      simd::SetTier(Tier::kScalar);
      simd::CmpU32EqBitmap(codes.data(), n, 3, negate, ref.data());
      ForEachTier([&](Tier t) {
        std::vector<uint64_t> out(nwords, 0xabcdULL);
        simd::CmpU32EqBitmap(codes.data(), n, 3, negate, out.data());
        ASSERT_EQ(out, ref) << "tier=" << simd::TierName(t) << " n=" << n;
      });
    }
    for (bool match_nonzero : {false, true}) {
      std::vector<uint64_t> ref(nwords);
      simd::SetTier(Tier::kScalar);
      simd::CmpU8Bitmap(bytes.data(), n, match_nonzero, ref.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ((ref[j / 64] >> (j % 64)) & 1,
                  ((bytes[j] != 0) == match_nonzero) ? 1u : 0u);
      }
      ForEachTier([&](Tier t) {
        std::vector<uint64_t> out(nwords, 0xabcdULL);
        simd::CmpU8Bitmap(bytes.data(), n, match_nonzero, out.data());
        ASSERT_EQ(out, ref) << "tier=" << simd::TierName(t) << " n=" << n;
      });
    }
  }
}

TEST(SimdKernelTest, BitmapWordOpsMatchScalarOnEveryTier) {
  for (size_t nwords : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7},
                        size_t{64}, size_t{65}}) {
    Rng rng(0x9999 + nwords);
    std::vector<uint64_t> a(nwords), b(nwords);
    for (size_t i = 0; i < nwords; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Next();
    }
    uint64_t pop_ref = 0;
    std::vector<uint64_t> and_ref(nwords);
    for (size_t i = 0; i < nwords; ++i) {
      and_ref[i] = a[i] & b[i];
      pop_ref += static_cast<uint64_t>(std::popcount(a[i]));
    }
    ForEachTier([&](Tier t) {
      std::vector<uint64_t> out(nwords);
      simd::AndWords(a.data(), b.data(), nwords, out.data());
      ASSERT_EQ(out, and_ref) << simd::TierName(t);
      ASSERT_EQ(simd::PopcountWords(a.data(), nwords), pop_ref)
          << simd::TierName(t);
    });
  }
}

TEST(SimdKernelTest, BitmapToSelEnumeratesSetBitsAscending) {
  Rng rng(0x4242);
  std::vector<uint64_t> words = {0, ~0ULL, rng.Next(), 1ULL << 63, rng.Next()};
  std::vector<uint32_t> expect;
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint32_t b = 0; b < 64; ++b) {
      if ((words[w] >> b) & 1) {
        expect.push_back(1000 + static_cast<uint32_t>(w) * 64 + b);
      }
    }
  }
  std::vector<uint32_t> out(expect.size() + 8, 0xffffffffu);
  const size_t k = simd::BitmapToSel(words.data(), words.size(), 1000,
                                     out.data());
  ASSERT_EQ(k, expect.size());
  out.resize(k);
  EXPECT_EQ(out, expect);
}

TEST(SimdKernelTest, CmpF64MaskWordMatchesScalarForEveryWidth) {
  const std::vector<double> data = RandomDoubles(64, 0x2468, true);
  for (size_t nbits = 0; nbits <= 64; ++nbits) {
    for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
      simd::SetTier(Tier::kScalar);
      const uint64_t ref = simd::CmpF64MaskWord(data.data(), nbits, op, 1.0);
      if (nbits < 64) {
        ASSERT_EQ(ref >> nbits, 0u) << "high bits must be zero";
      }
      ForEachTier([&](Tier t) {
        ASSERT_EQ(simd::CmpF64MaskWord(data.data(), nbits, op, 1.0), ref)
            << "tier=" << simd::TierName(t) << " nbits=" << nbits
            << " op=" << static_cast<int>(op);
      });
    }
  }
}

TEST(SimdKernelTest, MaskedAndDenseAddsMatchScalarBitwise) {
  const std::vector<double> x = RandomDoubles(64, 0x1357, false);
  const std::vector<double> acc0 = RandomDoubles(64, 0x8642, false);
  const uint64_t masks[] = {0,       ~0ULL,         0x1ULL,
                            1ULL << 63, 0xf0f0f0f0f0f0f0f0ULL,
                            0x123456789abcdef0ULL};
  for (uint64_t mask : masks) {
    std::vector<double> ref = acc0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      ref[b] += x[b];
    }
    std::vector<double> refc = acc0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      refc[std::countr_zero(m)] += 2.5;
    }
    ForEachTier([&](Tier t) {
      std::vector<double> acc = acc0;
      simd::MaskedAddF64Word(acc.data(), x.data(), mask);
      for (int j = 0; j < 64; ++j) {
        ASSERT_TRUE(BitEq(acc[j], ref[j]))
            << simd::TierName(t) << " mask=" << mask << " j=" << j;
      }
      acc = acc0;
      simd::MaskedAddConstF64Word(acc.data(), 2.5, mask);
      for (int j = 0; j < 64; ++j) {
        ASSERT_TRUE(BitEq(acc[j], refc[j])) << simd::TierName(t) << " j=" << j;
      }
    });
  }
  for (size_t n : kLens) {
    const std::vector<double> a0 = RandomDoubles(n, 0x888 + n, false);
    std::vector<double> refc = a0;
    for (size_t i = 0; i < n; ++i) refc[i] += -1.25;
    ForEachTier([&](Tier t) {
      std::vector<double> acc = a0;
      simd::AddConstF64(acc.data(), -1.25, n);
      for (size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(BitEq(acc[j], refc[j])) << simd::TierName(t) << " n=" << n;
      }
    });
  }
}

TEST(SimdKernelTest, MaskedAccumulateMatchesReferenceBitwiseOnEveryTier) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(0x7ff8000000000123ULL),  // NaN with a payload
      std::bit_cast<double>(0x7ff0000000000001ULL),  // signaling NaN
      inf, -inf, -0.0, 0.0};
  constexpr size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> x = RandomDoubles(64, 0x2468, false);
  std::vector<double> sums0 = RandomDoubles(64, 0x1359, false);
  std::vector<double> counts0(64);
  for (size_t j = 0; j < 64; ++j) counts0[j] = static_cast<double>(j % 7);
  // Specials sit on disjoint lanes of x and of each accumulator: IEEE
  // leaves open which payload a sum of two NaNs keeps, so no lane adds two.
  for (size_t j = 0; j < 64; j += 4) {
    x[j] = specials[(j / 4) % kSpecials];
    sums0[j + 1] = specials[(j / 4 + 3) % kSpecials];
    counts0[j + 3] = specials[(j / 4 + 5) % kSpecials];
  }
  x[2] = inf;  // inf + -inf on a set lane: a fresh NaN
  sums0[2] = -inf;

  std::vector<uint64_t> masks = {0, ~0ULL, 0x5555555555555555ULL,
                                 0xaaaaaaaaaaaaaaaaULL};
  Rng rng(0xacc);
  for (int i = 0; i < 4; ++i) masks.push_back(rng.Next());
  for (uint64_t mask : masks) {
    std::vector<double> ref_sums = sums0;
    std::vector<double> ref_counts = counts0;
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      const int b = std::countr_zero(m);
      ref_sums[b] += x[b];
      ref_counts[b] += 1.0;
    }
    ForEachTier([&](Tier t) {
      std::vector<double> sums = sums0;
      std::vector<double> counts = counts0;
      simd::MaskedAccumulateF64Word(sums.data(), counts.data(), x.data(),
                                    mask);
      for (int j = 0; j < 64; ++j) {
        ASSERT_TRUE(BitEq(sums[j], ref_sums[j]))
            << simd::TierName(t) << " mask=" << mask << " j=" << j;
        ASSERT_TRUE(BitEq(counts[j], ref_counts[j]))
            << simd::TierName(t) << " mask=" << mask << " j=" << j;
      }
      // Sum-only form.
      sums = sums0;
      simd::MaskedAccumulateF64Word(sums.data(), nullptr, x.data(), mask);
      for (int j = 0; j < 64; ++j) {
        ASSERT_TRUE(BitEq(sums[j], ref_sums[j]))
            << simd::TierName(t) << " sum-only mask=" << mask << " j=" << j;
      }
    });
  }
}

TEST(SimdKernelTest, AffineMapMatchesScalarBitwiseAndAllowsInPlace) {
  for (size_t n : kLens) {
    const std::vector<double> in = RandomDoubles(n, 0xaaa + n, false);
    const double scale = 3.7, offset = -11.25;
    std::vector<double> ref(n);
    for (size_t i = 0; i < n; ++i) ref[i] = offset + scale * in[i];
    ForEachTier([&](Tier t) {
      std::vector<double> out(n, std::numeric_limits<double>::quiet_NaN());
      simd::AffineMapF64(in.data(), n, scale, offset, out.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(BitEq(out[j], ref[j])) << simd::TierName(t) << " n=" << n;
      }
      std::vector<double> inplace = in;
      simd::AffineMapF64(inplace.data(), n, scale, offset, inplace.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_TRUE(BitEq(inplace[j], ref[j])) << simd::TierName(t);
      }
    });
  }
}

TEST(SimdKernelTest, RngAndVariateBlocksIdenticalAcrossTiers) {
  alignas(64) uint64_t state0[16];
  Rng seeder(0x1020304050ULL);
  for (auto& w : state0) w = seeder.Next();

  simd::SetTier(Tier::kScalar);
  alignas(64) uint64_t state_ref[16];
  std::memcpy(state_ref, state0, sizeof(state0));
  alignas(64) uint64_t raw_ref[simd::kRngBatch];
  simd::RngBlock(state_ref, raw_ref);
  alignas(64) double uni_ref[simd::kRngBatch];
  simd::UniformBlock(raw_ref, uni_ref);

  // Lane semantics: lane l of the block is a xoshiro256++ stream seeded
  // with state words state0[w*4+l], and uniforms are (raw >> 12) * 2^-52.
  for (int l = 0; l < 4; ++l) {
    Rng lane(0);
    lane.set_state({state0[0 * 4 + l], state0[1 * 4 + l], state0[2 * 4 + l],
                    state0[3 * 4 + l]});
    for (int s = 0; s < 16; ++s) {
      ASSERT_EQ(raw_ref[s * 4 + l], lane.Next()) << "lane=" << l;
    }
  }
  for (size_t j = 0; j < simd::kRngBatch; ++j) {
    ASSERT_TRUE(BitEq(uni_ref[j],
                      static_cast<double>(raw_ref[j] >> 12) * 0x1.0p-52));
    ASSERT_GE(uni_ref[j], 0.0);
    ASSERT_LT(uni_ref[j], 1.0);
  }

  ForEachTier([&](Tier t) {
    alignas(64) uint64_t state[16];
    std::memcpy(state, state0, sizeof(state0));
    alignas(64) uint64_t raw[simd::kRngBatch];
    simd::RngBlock(state, raw);
    ASSERT_EQ(std::memcmp(state, state_ref, sizeof(state)), 0)
        << simd::TierName(t);
    ASSERT_EQ(std::memcmp(raw, raw_ref, sizeof(raw)), 0) << simd::TierName(t);
    alignas(64) double uni[simd::kRngBatch];
    simd::UniformBlock(raw, uni);
    for (size_t j = 0; j < simd::kRngBatch; ++j) {
      ASSERT_TRUE(BitEq(uni[j], uni_ref[j]))
          << simd::TierName(t) << " j=" << j;
    }
  });
}

/// The raw word whose ziggurat layer is `layer` and whose signed abscissa
/// integer (bits 11..63) is k; bits 8..10, which the sampler ignores, are
/// `pad`.
uint64_t ZigguratWord(int64_t k, size_t layer, uint64_t pad) {
  return (static_cast<uint64_t>(k) << 11) | ((pad & 7) << 8) | layer;
}

TEST(SimdKernelTest, NormalFastBlockMatchesItsDefinitionOnEveryTier) {
  // Every layer, the extreme abscissas k = -2^52 and 2^52 - 1, zero and
  // random k, first against the ziggurat's own tables, then against an
  // edge table built so that |x| lands exactly on the edge (a miss: the
  // fast accept is strict) for k and -k in every layer.
  const NormalZiggurat& z = NormalZigguratTables();
  constexpr int64_t kMin = -(int64_t{1} << 52);
  constexpr int64_t kMax = (int64_t{1} << 52) - 1;
  Rng rng(0x2a7);
  auto random_k = [&] { return static_cast<int64_t>(rng.Next()) >> 11; };

  std::vector<uint64_t> real_words;
  for (size_t i = 0; i < 256; ++i) {
    for (int64_t k : {kMin, kMax, int64_t{0}, int64_t{-1}, random_k(),
                      random_k()}) {
      real_words.push_back(ZigguratWord(k, i, rng.Next()));
    }
  }
  std::vector<uint64_t> edge_words;
  std::vector<double> edge(256);
  for (size_t i = 0; i < 256; ++i) {
    const int64_t k = random_k();
    edge[i] = std::fabs(static_cast<double>(k) * z.x_scaled[i]);
    for (int64_t kk : {k, -k, k - 1, k + 1}) {
      edge_words.push_back(ZigguratWord(kk, i, rng.Next()));
    }
  }
  ASSERT_EQ(real_words.size() % simd::kRngBatch, 0u);
  ASSERT_EQ(edge_words.size() % simd::kRngBatch, 0u);

  auto check = [&](const std::vector<uint64_t>& words, const double* x_edge,
                   bool edge_case) {
    for (size_t b = 0; b < words.size(); b += simd::kRngBatch) {
      const uint64_t* raw = words.data() + b;
      double want[simd::kRngBatch];
      uint64_t want_miss = 0;
      for (size_t j = 0; j < simd::kRngBatch; ++j) {
        const size_t i = raw[j] & 0xff;
        const double k =
            static_cast<double>(static_cast<int64_t>(raw[j]) >> 11);
        want[j] = k * z.x_scaled[i];
        if (!(std::fabs(want[j]) < x_edge[i])) want_miss |= uint64_t{1} << j;
        // The words built from k and -k sit exactly on the edge.
        if (edge_case && j % 4 < 2) {
          ASSERT_EQ(std::fabs(want[j]), x_edge[i]) << "layer=" << i;
          ASSERT_TRUE((want_miss >> j) & 1) << "layer=" << i;
        }
      }
      ForEachTier([&](Tier t) {
        alignas(64) double out[simd::kRngBatch];
        const uint64_t miss =
            simd::NormalFastBlock(raw, z.x_scaled, x_edge, out);
        ASSERT_EQ(miss, want_miss) << simd::TierName(t) << " block=" << b;
        for (size_t j = 0; j < simd::kRngBatch; ++j) {
          ASSERT_TRUE(BitEq(out[j], want[j]))
              << simd::TierName(t) << " block=" << b << " j=" << j;
        }
      });
    }
  };
  check(real_words, z.x + 1, false);
  check(edge_words, edge.data(), true);
}

TEST(SimdKernelTest, BatchRngStreamInvariantUnderTierAndChunking) {
  constexpr size_t kDraws = 100000;
  simd::SetTier(Tier::kScalar);
  std::vector<double> uni_ref(kDraws), nrm_ref(kDraws);
  {
    Rng seeder(0xfeed);
    BatchRng batch(seeder);
    batch.FillUniform(uni_ref.data(), kDraws);
    batch.FillNormal(nrm_ref.data(), kDraws);
  }
  ForEachTier([&](Tier t) {
    Rng seeder(0xfeed);
    BatchRng batch(seeder);
    std::vector<double> uni(kDraws), nrm(kDraws);
    batch.FillUniform(uni.data(), kDraws);
    batch.FillNormal(nrm.data(), kDraws);
    for (size_t j = 0; j < kDraws; ++j) {
      ASSERT_TRUE(BitEq(uni[j], uni_ref[j]))
          << simd::TierName(t) << " j=" << j;
      ASSERT_TRUE(BitEq(nrm[j], nrm_ref[j]))
          << simd::TierName(t) << " j=" << j;
    }
  });
  // Chunked consumption (odd sizes, single draws) yields the same stream.
  {
    Rng seeder(0xfeed);
    BatchRng batch(seeder);
    std::vector<double> uni;
    uni.reserve(kDraws);
    size_t step = 1;
    while (uni.size() < kDraws) {
      const size_t take = std::min(step, kDraws - uni.size());
      std::vector<double> part(take);
      batch.FillUniform(part.data(), take);
      uni.insert(uni.end(), part.begin(), part.end());
      step = step * 3 + 1;
      if (step > 500) step = 1;
    }
    for (size_t j = 0; j < kDraws; ++j) {
      ASSERT_TRUE(BitEq(uni[j], uni_ref[j])) << "chunked j=" << j;
    }
    Rng seeder2(0xfeed);
    BatchRng one(seeder2);
    for (size_t j = 0; j < 200; ++j) {
      ASSERT_TRUE(BitEq(one.NextUniform(), uni_ref[j])) << j;
    }
  }
  // Normal stream has plausible moments (it is a real N(0,1) sampler, not
  // just a deterministic function).
  double mean = 0, var = 0;
  for (double v : nrm_ref) mean += v;
  mean /= kDraws;
  for (double v : nrm_ref) var += (v - mean) * (v - mean);
  var /= kDraws;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(SimdKernelTest, BatchRngNormalStreamInvariantUnderChunking) {
  // A partial block's raw words are mapped only as they are consumed, so
  // any mix of odd-sized fills, whole blocks and single draws must replay
  // the one-shot stream bit for bit (the ziggurat's slow-path draws stay in
  // word order).
  constexpr size_t kDraws = 50000;
  simd::SetTier(simd::BestSupportedTier());
  std::vector<double> ref(kDraws);
  {
    Rng seeder(0xc0ffee);
    BatchRng batch(seeder);
    batch.FillNormal(ref.data(), kDraws);
  }
  Rng seeder(0xc0ffee);
  BatchRng batch(seeder);
  std::vector<double> got;
  got.reserve(kDraws);
  // Fill sizes; 0 stands for one NextNormal().
  constexpr size_t kSteps[] = {1, 1000, 63, 64, 65, 0, 7, 129, 1, 500};
  for (size_t i = 0; got.size() < kDraws; ++i) {
    const size_t take = std::min(kSteps[i % 10], kDraws - got.size());
    if (take == 0) {
      got.push_back(batch.NextNormal());
      continue;
    }
    std::vector<double> part(take);
    batch.FillNormal(part.data(), take);
    got.insert(got.end(), part.begin(), part.end());
  }
  for (size_t j = 0; j < kDraws; ++j) {
    ASSERT_TRUE(BitEq(got[j], ref[j])) << "j=" << j;
  }
}

TEST(SimdKernelTest, BatchRngNormalFastPathIsTheScalarZiggurat) {
  // Raw word j of a block is the first ziggurat attempt of normal j. Where
  // that attempt is a fast-path accept, SampleStandardNormal on the word's
  // lane consumes exactly that one word, and BatchRng must return the
  // same bits.
  simd::SetTier(simd::BestSupportedTier());
  Rng seeder(0xacc);
  BatchRng batch(seeder);
  // Reconstruct the lanes the way the BatchRng constructor seeds them.
  Rng seeder2(0xacc);
  Rng lanes[4];
  for (int l = 0; l < 4; ++l) {
    SplitMix64 sm(seeder2.Next());
    Rng::State st;
    for (auto& w : st) w = sm.Next();
    lanes[l].set_state(st);
  }
  constexpr size_t kBlocks = 2000;
  size_t fast = 0;
  for (size_t blk = 0; blk < kBlocks; ++blk) {
    double got[simd::kRngBatch];
    batch.FillNormal(got, simd::kRngBatch);
    for (size_t s = 0; s < simd::kRngBatch / 4; ++s) {
      for (size_t l = 0; l < 4; ++l) {
        Rng probe = lanes[l];
        const double want = SampleStandardNormal(probe);
        lanes[l].Next();
        if (probe.state() != lanes[l].state()) continue;  // slow path
        ++fast;
        ASSERT_TRUE(BitEq(got[s * 4 + l], want))
            << "block=" << blk << " j=" << s * 4 + l;
      }
    }
  }
  // About 98.5% of first attempts are fast accepts.
  const double share =
      static_cast<double>(fast) / static_cast<double>(kBlocks * 64);
  EXPECT_GT(share, 0.98);
  EXPECT_LT(share, 0.99);
}

TEST(SimdKernelTest, BatchRngUniformStreamIsPinned) {
  // The first 64 uniforms for a fixed seed, as k with u = k * 2^-52: the
  // uniform stream (lane seeding, RngBlock, UniformBlock) must not move
  // when the normal mapping or the seeder's draw count changes.
  static constexpr uint64_t kGolden[simd::kRngBatch] = {
      0x2d1fe5f47e5db, 0xf8830a0cfc6e1, 0xe36fc141efb83, 0xd8cec6f652ca0,
      0x440708d0ceb9e, 0x3dc3ce3ab6032, 0x2fde3eae7688d, 0x0a0d36f72ce17,
      0xa7e1c8dac228b, 0x5bf2249f9658a, 0x67b59d33bdd25, 0x75c667979ceab,
      0x44552e6fb46e4, 0x24ef6bcb10763, 0xe7693caaf9001, 0x750b9d5e7e702,
      0xf7fa75cd7f5a1, 0xa16f3cc122d2c, 0x61b69e2d75009, 0xf12d55b1350c5,
      0x3bdfa0a3a7bfe, 0xc52ef384f1044, 0xe6cadc55b1813, 0x725f253cb0d16,
      0x004d5be80623c, 0x3c14aa0ea7936, 0xafbbcd91cf935, 0xc74d1bd3b132b,
      0x75dd6bc5ddd39, 0x47b28d82a6310, 0x23aa6b679f75e, 0x98dea0a3c2401,
      0x0385bdf1fb134, 0xcd50379a36b52, 0x6c9f4cee52087, 0x5d8542c0cdabe,
      0x41d162cbc6de1, 0xcc49489bc9c95, 0x8538ce47a7cf8, 0xe866adfe6cca0,
      0x128da0c695934, 0xd572a142ced23, 0xa73f12ca18ca8, 0xcb071bfdf7ba2,
      0x7a437d71fd0fd, 0x4c65ac27ef57a, 0x907cb2da02a91, 0xf6a804099bad0,
      0xe7f99e74b9b83, 0x69faff220ddbb, 0xb4f04ed1afe0e, 0xa2d70ca3d4aea,
      0xb30e49e138a55, 0x73548fb427188, 0xcf1603bfd9686, 0x6f16a44b8408a,
      0x007d3919d2833, 0x49204267be3d6, 0xc6d3c2d1a73df, 0x1d2b61799cf91,
      0x72586b115a353, 0xb6b72c67d3d78, 0x6e61260c79f6c, 0x10baec920ba6e,
  };
  ForEachTier([&](Tier t) {
    Rng seeder(0x60d);
    BatchRng batch(seeder);
    double u[simd::kRngBatch];
    batch.FillUniform(u, simd::kRngBatch);
    for (size_t j = 0; j < simd::kRngBatch; ++j) {
      ASSERT_TRUE(BitEq(u[j], static_cast<double>(kGolden[j]) * 0x1p-52))
          << simd::TierName(t) << " j=" << j;
    }
  });
}

TEST(SimdKernelTest, BatchRngNormalStreamIsPinned) {
  // An FNV-1a digest of the first 4133 normals for a fixed seed: 64 whole
  // blocks and a partial one, 78 of whose words take the slow path. The
  // tier tests above compare tiers with each other; this pins the stream
  // itself, so reordering the slow paths or changing the fast-path map
  // fails it on every tier.
  ForEachTier([&](Tier t) {
    Rng seeder(0x60d);
    BatchRng batch(seeder);
    std::vector<double> v(4133);
    batch.FillNormal(v.data(), v.size());
    uint64_t h = 0xcbf29ce484222325ULL;
    for (double x : v) {
      h ^= std::bit_cast<uint64_t>(x);
      h *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h, 0x60025516e46bc3f7ULL) << simd::TierName(t);
  });
}

// ---------------------------------------------------------------------------
// Engine-level differential sweep (satellite): the full columnar filter
// path, the bundle query kernels, and a 1e6-draw GenerateScalarN stream
// must be bitwise-identical across every SIMD tier and for 1/2/8 worker
// threads. This is the end-to-end guarantee the per-kernel tests above
// build up to.
// ---------------------------------------------------------------------------

mcdb::MonteCarloDb MakeSimdSweepDb(size_t patients) {
  using table::DataType;
  using table::Row;
  using table::Schema;
  using table::Value;
  mcdb::MonteCarloDb db;
  table::Table p{
      Schema({{"PID", DataType::kInt64}, {"REGION", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)),
              Value(i % 3 == 0 ? "N" : (i % 3 == 1 ? "S" : "W"))});
  }
  EXPECT_TRUE(db.AddTable("PATIENTS", std::move(p)).ok());
  table::Table param{
      Schema({{"MEAN", DataType::kDouble}, {"STD", DataType::kDouble}})};
  param.Append({Value(120.0), Value(15.0)});
  EXPECT_TRUE(db.AddTable("SBP_PARAM", std::move(param)).ok());
  mcdb::StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<mcdb::NormalVg>();
  spec.param_binder = [](const Row&, const mcdb::DatabaseInstance& det)
      -> Result<Row> {
    const table::Table& param = det.at("SBP_PARAM");
    return Row{param.row(0)[0], param.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"REGION", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  EXPECT_TRUE(db.AddStochasticTable(std::move(spec)).ok());
  return db;
}

/// One full engine pass under the CURRENT tier and the given pool: bundle
/// generation, stochastic filter, aggregates, group-by, and a vectorized
/// columnar filter stack. Returns every double/index produced, flattened,
/// for bitwise comparison.
std::vector<double> RunEngineSweep(ThreadPool* pool) {
  std::vector<double> trace;
  mcdb::MonteCarloDb db = MakeSimdSweepDb(777);
  auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                       /*num_reps=*/300, /*seed=*/42, pool);
  EXPECT_TRUE(bundles.ok());
  mcdb::BundleTable bt = std::move(bundles).value();
  auto filtered = bt.FilterStoch("SBP", table::CmpOp::kGt, 128.0);
  EXPECT_TRUE(filtered.ok());
  for (const auto& r :
       {bt.AggregateSum("SBP"), bt.AggregateAvg("SBP"),
        filtered.value().AggregateSum("SBP"),
        filtered.value().AggregateAvg("SBP")}) {
    EXPECT_TRUE(r.ok());
    trace.insert(trace.end(), r.value().begin(), r.value().end());
  }
  const std::vector<double> cnt = filtered.value().AggregateCount();
  trace.insert(trace.end(), cnt.begin(), cnt.end());
  auto groups = filtered.value().GroupSum("REGION", "SBP");
  EXPECT_TRUE(groups.ok());
  for (const auto& g : groups.value()) {
    trace.push_back(static_cast<double>(g.group.size()));
    trace.insert(trace.end(), g.sums.begin(), g.sums.end());
  }

  // Columnar filter path: materialize an instance-like table with nulls and
  // a NaN, then push every comparison kind through VecFilter.
  table::Table t{table::Schema({{"PID", table::DataType::kInt64},
                                {"REGION", table::DataType::kString},
                                {"SBP", table::DataType::kDouble},
                                {"FLAG", table::DataType::kBool}})};
  Rng mk(99);
  for (size_t i = 0; i < 20000; ++i) {
    table::Value sbp = (i % 97 == 0)
                           ? table::Value()
                           : table::Value(90.0 + 60.0 * mk.NextDouble());
    if (i == 12345) sbp = table::Value(std::nan(""));
    t.Append({table::Value(static_cast<int64_t>(i % 5000)),
              table::Value(i % 3 == 0 ? "N" : (i % 3 == 1 ? "S" : "W")),
              std::move(sbp), table::Value(i % 7 < 3)});
  }
  auto cols = t.ToColumnar();
  EXPECT_TRUE(cols.ok());
  const table::ColumnarTable& ct = *cols.value();
  const auto ops = {table::CmpOp::kEq, table::CmpOp::kNe, table::CmpOp::kLt,
                    table::CmpOp::kLe, table::CmpOp::kGt, table::CmpOp::kGe};
  for (table::CmpOp op : ops) {
    for (const auto& [col, lit] :
         std::vector<std::pair<std::string, table::Value>>{
             {"SBP", table::Value(120.0)},
             {"PID", table::Value(static_cast<int64_t>(2500))},
             {"PID", table::Value(2500.5)},
             {"REGION", table::Value("S")},
             {"FLAG", table::Value(true)}}) {
      auto sel = table::VecFilter(ct, nullptr, col, op, lit, pool);
      if (!sel.ok()) continue;  // unsupported op/type combos error uniformly
      trace.push_back(static_cast<double>(sel.value().size()));
      for (uint32_t idx : sel.value()) trace.push_back(idx);
    }
  }
  return trace;
}

TEST(SimdEngineDifferentialTest, TiersAndThreadCountsAreBitIdentical) {
  simd::SetTier(Tier::kScalar);
  const std::vector<double> reference = RunEngineSweep(nullptr);
  EXPECT_GT(reference.size(), 2000u);
  for (Tier t : AvailableTiers()) {
    simd::SetTier(t);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      ThreadPool pool(threads);
      const std::vector<double> got = RunEngineSweep(&pool);
      ASSERT_EQ(got.size(), reference.size())
          << simd::TierName(t) << " x" << threads;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(BitEq(got[i], reference[i]))
            << simd::TierName(t) << " x" << threads << " at " << i;
      }
    }
  }
  simd::SetTier(simd::BestSupportedTier());
}

TEST(SimdEngineDifferentialTest, MillionDrawVariateStreamsAreTierInvariant) {
  using VgCase = std::pair<std::shared_ptr<mcdb::VgFunction>, table::Row>;
  const std::vector<VgCase> cases = {
      {std::make_shared<mcdb::NormalVg>(),
       {table::Value(5.0), table::Value(2.0)}},
      {std::make_shared<mcdb::UniformVg>(),
       {table::Value(-1.0), table::Value(3.0)}},
  };
  constexpr size_t kN = 1'000'000;
  for (const auto& [vg, params] : cases) {
    simd::SetTier(Tier::kScalar);
    std::vector<double> ref(kN);
    {
      Rng rng(0xfeed);
      ASSERT_TRUE(vg->GenerateScalarN(params, rng, kN, ref.data()));
    }
    for (Tier t : AvailableTiers()) {
      simd::SetTier(t);
      std::vector<double> got(kN, 0.0);
      Rng rng(0xfeed);
      ASSERT_TRUE(vg->GenerateScalarN(params, rng, kN, got.data()));
      size_t mismatches = 0;
      for (size_t i = 0; i < kN; ++i) {
        if (!BitEq(got[i], ref[i])) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << vg->name() << " on " << simd::TierName(t);
    }
  }
  simd::SetTier(simd::BestSupportedTier());
}

}  // namespace
}  // namespace mde
