#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/aligned.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

// Defined first so that, when the whole binary runs, these are the
// process's first normal draws: eight threads race to build the ziggurat
// tables (built once, on first use) and must all draw from complete ones.
TEST(ZigguratTest, ConcurrentFirstDrawsMatchSingleThreadedRun) {
  constexpr int kThreads = 8;
  constexpr int kDraws = 1000;
  std::vector<std::vector<double>> got(kThreads, std::vector<double>(kDraws));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (double& x : got[t]) x = SampleStandardNormal(rng);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(900 + t);
    for (int i = 0; i < kDraws; ++i) {
      const double want = SampleStandardNormal(rng);
      ASSERT_EQ(std::memcmp(&got[t][i], &want, sizeof want), 0)
          << "thread " << t << " draw " << i;
    }
  }
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BoundedRespectsLimit) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, SubstreamsDoNotOverlap) {
  Rng s0 = Rng::Substream(5, 0);
  Rng s1 = Rng::Substream(5, 1);
  std::set<uint64_t> first;
  for (int i = 0; i < 1000; ++i) first.insert(s0.Next());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(first.count(s1.Next()), 0u);
}

TEST(RngTest, SubstreamEqualsRepeatedJumps) {
  // Substream(seed, i) is the seeded state advanced by i jumps; indices
  // around powers of two, where a faster Substream would change the number
  // of steps it composes.
  constexpr uint64_t kIndices[] = {0,   1,   2,   3,    63,   64,  65,
                                   127, 128, 129, 1023, 1024, 1025};
  for (uint64_t seed : {uint64_t{0}, uint64_t{5}, uint64_t{0xdeadbeefcafe}}) {
    Rng jumped(seed);
    uint64_t jumps = 0;
    for (uint64_t i : kIndices) {
      for (; jumps < i; ++jumps) jumped.Jump();
      EXPECT_EQ(Rng::Substream(seed, i).state(), jumped.state())
          << "seed=" << seed << " i=" << i;
    }
  }
}

TEST(DistributionsTest, NormalMoments) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(SampleNormal(rng, 3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(ZigguratTest, LayerTablesHaveEqualAreasAndDecreasingEdges) {
  const NormalZiggurat& z = NormalZigguratTables();
  constexpr int n = NormalZiggurat::kLayers;
  constexpr double r = NormalZiggurat::kR;
  constexpr double v = NormalZiggurat::kV;
  EXPECT_EQ(z.x[1], r);
  EXPECT_EQ(z.x[n], 0.0);
  EXPECT_NEAR(z.x[0], 3.91075795953709, 1e-13);
  EXPECT_NEAR(z.x[n - 1], 0.21524189591327381, 1e-13);
  for (int i = 0; i < n; ++i) EXPECT_GT(z.x[i], z.x[i + 1]) << "edge " << i;
  for (int i = 0; i <= n; ++i) {
    EXPECT_DOUBLE_EQ(z.f[i], std::exp(-0.5 * z.x[i] * z.x[i])) << "edge " << i;
  }
  // Layer 0 is the strip under the density up to R plus the tail beyond it,
  // drawn as a rectangle of width x[0] and height f(R).
  const double base = r * std::exp(-0.5 * r * r) +
                      std::sqrt(M_PI / 2.0) * std::erfc(r / std::sqrt(2.0));
  EXPECT_NEAR(base / v, 1.0, 1e-9);
  EXPECT_NEAR(z.x[0] * z.f[1] / v, 1.0, 1e-9);
  for (int i = 1; i < n; ++i) {
    EXPECT_NEAR(z.x[i] * (z.f[i + 1] - z.f[i]) / v, 1.0, 1e-9)
        << "layer " << i;
  }
}

TEST(ZigguratTest, DrawsArePureFunctionsOfGeneratorState) {
  // a's draws are interleaved with draws on another generator, b's are
  // not; equal states must still give bit-equal draws and equal states
  // after them, so the sampler keeps nothing between calls.
  const int kDraws = 20000;
  Rng a(77), b(77), other(78);
  std::vector<double> xs(kDraws), ys(kDraws);
  std::vector<Rng::State> as(kDraws), bs(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    for (int k = 0; k < i % 3; ++k) SampleStandardNormal(other);
    xs[i] = SampleStandardNormal(a);
    as[i] = a.state();
  }
  for (int i = 0; i < kDraws; ++i) {
    ys[i] = SampleStandardNormal(b);
    bs[i] = b.state();
  }
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(std::memcmp(&xs[i], &ys[i], sizeof(double)), 0) << "draw " << i;
    ASSERT_EQ(as[i], bs[i]) << "draw " << i;
  }
  // Restoring a saved state replays the draw.
  Rng c(79);
  const Rng::State saved = c.state();
  const double first = SampleStandardNormal(c);
  c.set_state(saved);
  EXPECT_EQ(SampleStandardNormal(c), first);
}

TEST(DistributionsTest, ExponentialMoments) {
  Rng rng(12);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.Add(SampleExponential(rng, 2.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
  EXPECT_NEAR(stat.variance(), 0.25, 0.02);
}

TEST(DistributionsTest, PoissonSmallLambda) {
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(static_cast<double>(SamplePoisson(rng, 4.5)));
  }
  EXPECT_NEAR(stat.mean(), 4.5, 0.1);
  EXPECT_NEAR(stat.variance(), 4.5, 0.2);
}

TEST(DistributionsTest, PoissonLargeLambda) {
  Rng rng(14);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(static_cast<double>(SamplePoisson(rng, 100.0)));
  }
  EXPECT_NEAR(stat.mean(), 100.0, 0.5);
}

TEST(DistributionsTest, GammaMoments) {
  Rng rng(15);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(SampleGamma(rng, 3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 6.0, 0.1);       // k * theta
  EXPECT_NEAR(stat.variance(), 12.0, 0.5);  // k * theta^2
}

TEST(DistributionsTest, GammaSmallShape) {
  Rng rng(16);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) stat.Add(SampleGamma(rng, 0.5, 1.0));
  EXPECT_NEAR(stat.mean(), 0.5, 0.05);
}

TEST(DistributionsTest, BinomialMoments) {
  Rng rng(17);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(static_cast<double>(SampleBinomial(rng, 20, 0.3)));
  }
  EXPECT_NEAR(stat.mean(), 6.0, 0.1);
  EXPECT_NEAR(stat.variance(), 4.2, 0.3);
}

TEST(DistributionsTest, BinomialEdgeCases) {
  Rng rng(18);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0);
  EXPECT_EQ(SampleBinomial(rng, 10, 0.0), 0);
  EXPECT_EQ(SampleBinomial(rng, 10, 1.0), 10);
}

TEST(DistributionsTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (SampleBernoulli(rng, 0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(DistributionsTest, GeometricMean) {
  Rng rng(20);
  RunningStat stat;
  for (int i = 0; i < 50000; ++i) {
    stat.Add(static_cast<double>(SampleGeometric(rng, 0.25)));
  }
  EXPECT_NEAR(stat.mean(), 3.0, 0.1);  // (1-p)/p
}

TEST(AliasTableTest, MatchesWeights) {
  Rng rng(21);
  AliasTable table({1.0, 2.0, 3.0, 4.0});
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), (k + 1) / 10.0, 0.01);
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  Rng rng(22);
  AliasTable table({0.0, 1.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 1u);
}

TEST(NormalFunctionsTest, QuantileInvertsCdf) {
  for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = NormalQuantile(p);
    EXPECT_NEAR(NormalCdf(x, 0.0, 1.0), p, 1e-6);
  }
}

TEST(NormalFunctionsTest, PdfIntegratesToCdfDelta) {
  // Riemann check on [-1, 1].
  double integral = 0.0;
  const int steps = 20000;
  for (int i = 0; i < steps; ++i) {
    const double x = -1.0 + 2.0 * i / steps;
    integral += NormalPdf(x, 0.0, 1.0) * (2.0 / steps);
  }
  EXPECT_NEAR(integral, NormalCdf(1, 0, 1) - NormalCdf(-1, 0, 1), 1e-3);
}

TEST(RunningStatTest, MatchesBatchFormulas) {
  std::vector<double> data = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStat rs;
  for (double v : data) rs.Add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), Mean(data));
  EXPECT_NEAR(rs.variance(), Variance(data), 1e-12);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  Rng rng(23);
  RunningStat all, a, b, empty;
  for (int i = 0; i < 1000; ++i) {
    const double v = SampleNormal(rng, 0, 1);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  a.Merge(empty);  // merging an empty side changes nothing
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  empty.Merge(a);  // merging into an empty side copies the state
  EXPECT_EQ(empty.state().n, a.state().n);
  EXPECT_EQ(empty.state().mean, a.state().mean);
  EXPECT_EQ(empty.state().m2, a.state().m2);
}

TEST(RunningCovarianceTest, KnownCovariance) {
  RunningCovariance rc;
  // y = 2x exactly: correlation 1, covariance = 2 * var(x).
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) rc.Add(x, 2.0 * x);
  EXPECT_NEAR(rc.correlation(), 1.0, 1e-12);
  EXPECT_NEAR(rc.covariance(), 2.0 * 2.5, 1e-12);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
}

TEST(AutocorrelationTest, WhiteNoiseNearZeroAr1High) {
  Rng rng(24);
  std::vector<double> white, ar;
  double prev = 0.0;
  for (int i = 0; i < 20000; ++i) {
    white.push_back(SampleNormal(rng, 0, 1));
    prev = 0.9 * prev + SampleNormal(rng, 0, 1);
    ar.push_back(prev);
  }
  EXPECT_NEAR(Autocorrelation(white, 1), 0.0, 0.03);
  EXPECT_NEAR(Autocorrelation(ar, 1), 0.9, 0.03);
}

TEST(HistogramTest, CountsAndClamping) {
  std::vector<double> v = {-10.0, 0.1, 0.5, 0.9, 10.0};
  auto h = Histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], 5u);
  EXPECT_EQ(h[0], 2u);  // -10 (clamped into the low bin) and 0.1
  EXPECT_EQ(h[1], 3u);  // 0.5 (bin edge), 0.9, and 10 (clamped)
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitAllBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { done++; });
  }
  pool.WaitAll();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Regression: a worker calling ParallelFor from inside a pool task used
  // to block in WaitAll forever once every worker was occupied. The caller
  // now help-runs its own chunks, so nesting composes at any depth.
  ThreadPool pool(4);
  std::atomic<int> inner_hits{0};
  pool.ParallelFor(8, 1, [&](size_t) {
    pool.ParallelFor(16, 1, [&](size_t) { inner_hits++; });
  });
  EXPECT_EQ(inner_hits.load(), 8 * 16);
}

TEST(ThreadPoolTest, NestedSubmitWaitAllFromWorker) {
  // A task that fans out subtasks and joins them with WaitAll used to
  // deadlock (the worker blocked on a queue it was supposed to drain, and
  // its own enclosing task kept in_flight above zero). The worker now
  // help-runs and waits only for tasks beyond its own stack.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::atomic<int> seen_at_join{-1};
  pool.Submit([&] {
    for (int j = 0; j < 8; ++j) {
      pool.Submit([&] { done++; });
    }
    pool.WaitAll();  // from a worker: help-runs the 8 subtasks
    seen_at_join = done.load();
  });
  pool.WaitAll();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(seen_at_join.load(), 8);
}

TEST(ThreadPoolTest, ParallelForEdgeCases) {
  ThreadPool pool(4);
  std::atomic<int> hits{0};
  pool.ParallelFor(0, [&](size_t) { hits++; });  // n == 0: no-op
  EXPECT_EQ(hits.load(), 0);
  pool.ParallelFor(1, [&](size_t i) { hits += static_cast<int>(i) + 1; });
  EXPECT_EQ(hits.load(), 1);  // n == 1: index 0 exactly once
  hits = 0;
  pool.ParallelFor(3, [&](size_t) { hits++; });  // n < workers
  EXPECT_EQ(hits.load(), 3);
  hits = 0;
  pool.ParallelFor(10, 128, [&](size_t) { hits++; });  // grain > n
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPoolTest, ParallelForChunksPartitionExactly) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelForChunks(100, 7, [&](size_t, size_t begin, size_t end) {
    EXPECT_LE(end - begin, 7u);
    for (size_t i = begin; i < end; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(pool.NumChunks(100, 7), 15u);
  EXPECT_EQ(pool.NumChunks(0, 7), 0u);
}

TEST(ThreadPoolTest, ParallelReduceDeterministicSum) {
  // Fixed chunking + in-order combine: the floating-point sum is
  // bit-identical across thread counts.
  std::vector<double> data(10000);
  Rng rng(42);
  for (double& v : data) v = rng.NextDouble() * 2.0 - 1.0;
  auto sum_with = [&](size_t threads) {
    ThreadPool pool(threads);
    return pool.ParallelReduce<double>(
        data.size(), 64, 0.0,
        [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) s += data[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_with(1);
  const double s2 = sum_with(2);
  const double s8 = sum_with(8);
  EXPECT_EQ(s1, s2);  // bitwise, not NEAR
  EXPECT_EQ(s1, s8);
}

TEST(ConfidenceTest, HalfWidthShrinksWithN) {
  Rng rng(25);
  RunningStat small, big;
  for (int i = 0; i < 100; ++i) small.Add(SampleNormal(rng, 0, 1));
  for (int i = 0; i < 10000; ++i) big.Add(SampleNormal(rng, 0, 1));
  EXPECT_GT(small.half_width(), big.half_width());
}

TEST(ConfidenceTest, HalfWidthIsInfiniteBelowTwoDraws) {
  // n = 0 and n = 1: no CLT bound exists. A zero half-width here would let
  // a one-draw cache entry satisfy ANY precision target.
  const double inf = std::numeric_limits<double>::infinity();
  RunningStat s;
  EXPECT_EQ(s.half_width(), inf);  // n = 0
  s.Add(3.0);
  EXPECT_EQ(s.half_width(), inf);  // n = 1: no variance yet
  s.Add(5.0);
  // n = 2: z * s / sqrt(n) with s = sqrt(2), so z * 1.
  EXPECT_EQ(s.half_width(), RunningStat::kZ95);
  EXPECT_NEAR(RunningStat::kZ95, NormalQuantile(0.975), 1e-6);
}

TEST(ConfidenceTest, HalfWidthMatchesBruteForce) {
  RunningStat s;
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.Add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  const double se =
      std::sqrt(m2 / static_cast<double>(xs.size() - 1)) /
      std::sqrt(static_cast<double>(xs.size()));
  EXPECT_NEAR(s.half_width(), 1.959964 * se, 1e-12);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
}

TEST(AlignedAllocatorTest, HugeBlocksAre2MiBAlignedSmallOnes64) {
  const size_t huge_doubles = kHugePageBytes / sizeof(double);
  for (size_t n : {size_t{1}, size_t{1000}, huge_doubles - 1}) {
    AlignedVector<double> v;
    v.reserve(n);
    EXPECT_TRUE(IsAligned(v.data(), 64)) << n;
  }
  for (size_t n : {huge_doubles, huge_doubles + 1, 3 * huge_doubles}) {
    AlignedVector<double> v;
    v.reserve(n);
    EXPECT_TRUE(IsAligned(v.data(), kHugePageBytes)) << n;
  }
  AlignedVector<uint8_t> bytes;
  bytes.reserve(kHugePageBytes);
  EXPECT_TRUE(IsAligned(bytes.data(), kHugePageBytes));
}

TEST(AlignedAllocatorTest, PushBackAcrossHugeThresholdKeepsContents) {
  // Growth reallocates from 64-aligned blocks into 2 MiB-aligned ones and
  // frees each old block through its own path; ASan checks the pairing.
  const uint64_t n = 2 * kHugePageBytes / sizeof(uint64_t) + 3;
  AlignedVector<uint64_t> v;
  for (uint64_t i = 0; i < n; ++i) v.push_back(i * 0x9e3779b97f4a7c15ULL);
  ASSERT_EQ(v.size(), n);
  EXPECT_TRUE(IsAligned(v.data(), kHugePageBytes));
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(v[i], i * 0x9e3779b97f4a7c15ULL) << i;
  }
  v.resize(10);
  v.shrink_to_fit();
  EXPECT_TRUE(IsAligned(v.data(), 64));
  EXPECT_EQ(v[9], 9 * 0x9e3779b97f4a7c15ULL);
}

TEST(AlignedAllocatorTest, ValueFillsStillFill) {
  // resize(n) does not zero, but every write that passes a value does.
  const size_t big = kHugePageBytes / sizeof(double) + 5;
  for (size_t n : {size_t{7}, big}) {
    AlignedVector<double> ctor(n, 2.5);
    AlignedVector<double> resized;
    resized.resize(n, 2.5);
    AlignedVector<double> assigned(3, -1.0);
    assigned.assign(n, 2.5);
    for (const auto* v : {&ctor, &resized, &assigned}) {
      ASSERT_EQ(v->size(), n);
      EXPECT_TRUE(std::all_of(v->begin(), v->end(),
                              [](double x) { return x == 2.5; }))
          << n;
    }
    AlignedVector<uint64_t> zeros(5, 1);
    zeros.resize(n, 0);
    EXPECT_EQ(zeros[4], 1u);
    EXPECT_TRUE(std::all_of(zeros.begin() + 5, zeros.end(),
                            [](uint64_t x) { return x == 0; }))
        << n;
  }
}

// The huge-block recycler (aligned.h): one parking slot, process-wide. After
// a huge allocation the slot is always empty (the request either took the
// parked block or released it), so each test below starts from a known state
// once it has allocated and freed its first block.

TEST(HugeBlockRecyclerTest, FreedBlockServesEqualOrSmallerRequests) {
  const size_t n = 3 * kHugePageBytes / sizeof(double);
  const void* first = nullptr;
  {
    AlignedVector<double> v(n);
    first = v.data();
    EXPECT_EQ(ParkedHugeBlockBytes(), 0u);
  }
  EXPECT_GE(ParkedHugeBlockBytes(), n * sizeof(double));
  {
    AlignedVector<double> same(n);
    EXPECT_EQ(same.data(), first);
    EXPECT_EQ(ParkedHugeBlockBytes(), 0u);
  }
  {
    // Any element type: the slot is keyed by bytes.
    AlignedVector<uint8_t> smaller(kHugePageBytes);
    EXPECT_EQ(static_cast<const void*>(smaller.data()), first);
  }
  // Serving the smaller request did not shrink the block.
  EXPECT_GE(ParkedHugeBlockBytes(), n * sizeof(double));
  AlignedVector<double> again(n);
  EXPECT_EQ(again.data(), first);
  EXPECT_TRUE(IsAligned(again.data(), kHugePageBytes));
}

TEST(HugeBlockRecyclerTest, LargerRequestReleasesTheParkedBlockFirst) {
  const size_t n = 2 * kHugePageBytes / sizeof(double);
  { AlignedVector<double> v(n); }
  const size_t parked = ParkedHugeBlockBytes();
  ASSERT_GE(parked, n * sizeof(double));
  const size_t big_n = (parked + kHugePageBytes) / sizeof(double);
  {
    AlignedVector<double> big(big_n);
    EXPECT_EQ(ParkedHugeBlockBytes(), 0u);
  }
  EXPECT_EQ(ParkedHugeBlockBytes(), big_n * sizeof(double));

  // Two blocks freed in either order: only the larger one stays parked.
  for (bool large_first : {true, false}) {
    AlignedVector<double> large(n);  // takes the parked big block
    AlignedVector<double> small(n);  // fresh, exactly n doubles
    EXPECT_EQ(ParkedHugeBlockBytes(), 0u);
    if (large_first) {
      AlignedVector<double>().swap(large);
      EXPECT_EQ(ParkedHugeBlockBytes(), big_n * sizeof(double));
      AlignedVector<double>().swap(small);
    } else {
      AlignedVector<double>().swap(small);
      EXPECT_EQ(ParkedHugeBlockBytes(), n * sizeof(double));
      AlignedVector<double>().swap(large);
    }
    EXPECT_EQ(ParkedHugeBlockBytes(), big_n * sizeof(double)) << large_first;
  }
}

TEST(HugeBlockRecyclerTest, SmallAllocationsNeverTouchTheSlot) {
  const size_t n = 2 * kHugePageBytes / sizeof(double);
  const void* block = nullptr;
  {
    AlignedVector<double> v(n);
    block = v.data();
  }
  const size_t parked = ParkedHugeBlockBytes();
  ASSERT_GT(parked, 0u);
  {
    AlignedVector<double> a(1000);
    AlignedVector<uint8_t> b(kHugePageBytes - 1);
    AlignedVector<uint64_t> c;
    for (uint64_t i = 0; i < 10000; ++i) c.push_back(i);
    EXPECT_NE(static_cast<const void*>(b.data()), block);
    EXPECT_EQ(ParkedHugeBlockBytes(), parked);
  }
  EXPECT_EQ(ParkedHugeBlockBytes(), parked);
  AlignedVector<double> huge(n);
  EXPECT_EQ(huge.data(), block);
}

TEST(HugeBlockRecyclerTest, ValueFillsFillARecycledBlock) {
  const size_t n = kHugePageBytes / sizeof(double) + 5;
  const void* block = nullptr;
  auto dirty = [&] {
    AlignedVector<double> v(n);
    std::fill(v.begin(), v.end(), 7.0);
    block = v.data();
  };
  auto all_equal = [](const auto& v, auto x) {
    return std::all_of(v.begin(), v.end(), [x](auto y) { return y == x; });
  };
  dirty();
  {
    AlignedVector<double> ctor(n, 2.5);
    EXPECT_EQ(ctor.data(), block);
    EXPECT_TRUE(all_equal(ctor, 2.5));
  }
  dirty();
  {
    AlignedVector<double> resized;
    resized.resize(n, -1.5);
    EXPECT_EQ(resized.data(), block);
    EXPECT_TRUE(all_equal(resized, -1.5));
  }
  dirty();
  {
    AlignedVector<double> assigned(3, 1.0);
    assigned.assign(n, 0.0);
    EXPECT_EQ(assigned.data(), block);
    EXPECT_TRUE(all_equal(assigned, 0.0));
  }
  dirty();
  AlignedVector<uint64_t> zeros(5, 1);
  zeros.resize(n, 0);
  EXPECT_EQ(static_cast<const void*>(zeros.data()), block);
  EXPECT_EQ(zeros[4], 1u);
  EXPECT_TRUE(std::all_of(zeros.begin() + 5, zeros.end(),
                          [](uint64_t x) { return x == 0; }));
}

TEST(HugeBlockRecyclerTest, ParkedBlockIsPoisonedAndReusedAsFillBytes) {
#if !defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "AddressSanitizer builds only";
#else
  const size_t n = 2 * kHugePageBytes;
  const uint8_t* stale = nullptr;
  {
    AlignedVector<uint8_t> v(n);
    std::memset(v.data(), 0x11, n);
    stale = v.data();
  }
  // Parked memory is not the program's: reading it is a use-after-poison.
  EXPECT_DEATH((void)*static_cast<const volatile uint8_t*>(stale),
               "use-after-poison");
  // Reused, it reads like a fresh ASan allocation under CI's
  // malloc_fill_byte=190, so a read of an unwritten element still shows up
  // as a wrong value.
  AlignedVector<uint8_t> w(n);
  ASSERT_EQ(w.data(), stale);
  EXPECT_TRUE(std::all_of(w.begin(), w.end(),
                          [](uint8_t b) { return b == 0xbe; }));
#endif
}

TEST(HugeBlockRecyclerTest, ConcurrentAllocateFreeHammer) {
  // Threads allocate, tag, check and free huge blocks of mixed sizes. A
  // block handed to two owners at once, or parked while in use, shows up
  // as a foreign tag; TSan checks the hand-offs through the slot.
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  constexpr size_t kStride = 4096;
  const size_t min_words = kHugePageBytes / sizeof(uint64_t);
  const size_t parked_before = ParkedHugeBlockBytes();
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      for (int it = 0; it < kIters; ++it) {
        const size_t words = min_words * (1 + rng.NextBounded(3)) +
                             rng.NextBounded(kStride);
        AlignedVector<uint64_t> v(words);
        const uint64_t tag = (static_cast<uint64_t>(t) << 32) | it;
        for (size_t i = 0; i < words; i += kStride) v[i] = tag ^ i;
        v[words - 1] = tag;
        std::this_thread::yield();
        for (size_t i = 0; i < words; i += kStride) {
          if (v[i] != (tag ^ i)) corrupt.fetch_add(1);
        }
        if (v[words - 1] != tag) corrupt.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(corrupt.load(), 0);
  // Every block was one of the hammer's or the one parked before it.
  EXPECT_LE(ParkedHugeBlockBytes(),
            std::max(parked_before, (3 * min_words + kStride) * 8));
}

// Property sweep: sample means of several distributions match analytic
// expectations within Monte Carlo error.
struct MomentCase {
  const char* name;
  double expected_mean;
  double tolerance;
  std::function<double(Rng&)> sampler;
};

class DistributionMomentTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributionMomentTest, MeanMatches) {
  static const MomentCase kCases[] = {
      {"normal", 1.5, 0.05, [](Rng& r) { return SampleNormal(r, 1.5, 1.0); }},
      {"exp", 0.25, 0.01, [](Rng& r) { return SampleExponential(r, 4.0); }},
      {"lognormal", std::exp(0.5), 0.05,
       [](Rng& r) { return SampleLognormal(r, 0.0, 1.0); }},
      {"uniform", 1.0, 0.02, [](Rng& r) { return SampleUniform(r, 0, 2); }},
      {"beta22", 0.5, 0.01, [](Rng& r) { return SampleBeta(r, 2, 2); }},
      {"gamma", 4.0, 0.1, [](Rng& r) { return SampleGamma(r, 2.0, 2.0); }},
  };
  const MomentCase& c = kCases[GetParam()];
  Rng rng(1000 + GetParam());
  RunningStat stat;
  for (int i = 0; i < 60000; ++i) stat.Add(c.sampler(rng));
  EXPECT_NEAR(stat.mean(), c.expected_mean, c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionMomentTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace mde
