/// Statistical property tests: chi-square goodness-of-fit on the samplers
/// the Monte Carlo layers depend on. With fixed seeds these are
/// deterministic; bounds are set at the chi-square 99.9% quantile so a
/// correct sampler passes with huge margin while a biased one fails.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "mcdb/vg_function.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace mde {
namespace {

/// Chi-square statistic of observed bin counts vs expected probabilities.
double ChiSquare(const std::vector<size_t>& observed,
                 const std::vector<double>& expected_prob, size_t n) {
  double stat = 0.0;
  for (size_t k = 0; k < observed.size(); ++k) {
    const double expected = expected_prob[k] * static_cast<double>(n);
    EXPECT_GT(expected, 5.0) << "bin too small for chi-square";
    const double d = static_cast<double>(observed[k]) - expected;
    stat += d * d / expected;
  }
  return stat;
}

TEST(GoodnessOfFitTest, UniformBits) {
  Rng rng(101);
  const size_t n = 100000;
  std::vector<size_t> counts(16, 0);
  for (size_t i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.NextDouble() * 16.0)];
  }
  // 15 dof, 99.9% quantile ~ 37.7.
  EXPECT_LT(ChiSquare(counts, std::vector<double>(16, 1.0 / 16), n), 37.7);
}

TEST(GoodnessOfFitTest, StandardNormalDeciles) {
  Rng rng(102);
  const size_t n = 100000;
  // Bin edges at the deciles of N(0,1): equal 10% mass per bin.
  std::vector<double> edges;
  for (int d = 1; d <= 9; ++d) edges.push_back(NormalQuantile(d / 10.0));
  std::vector<size_t> counts(10, 0);
  for (size_t i = 0; i < n; ++i) {
    const double x = SampleStandardNormal(rng);
    size_t bin = 0;
    while (bin < edges.size() && x > edges[bin]) ++bin;
    ++counts[bin];
  }
  // 9 dof, 99.9% quantile ~ 27.9.
  EXPECT_LT(ChiSquare(counts, std::vector<double>(10, 0.1), n), 27.9);
}

TEST(GoodnessOfFitTest, StandardNormal256EqualProbabilityBins) {
  // As many equal-mass bins as the ziggurat has layers, binned by the exact
  // CDF: ~9766 expected draws per bin.
  Rng rng(107);
  const size_t n = 2500000;
  std::vector<size_t> counts(256, 0);
  for (size_t i = 0; i < n; ++i) {
    const double p = NormalCdf(SampleStandardNormal(rng), 0.0, 1.0);
    ++counts[std::min<size_t>(static_cast<size_t>(p * 256.0), 255)];
  }
  // 255 dof, 99.9% quantile ~ 330.5 (Wilson-Hilferty).
  EXPECT_LT(ChiSquare(counts, std::vector<double>(256, 1.0 / 256), n), 330.5);
}

TEST(GoodnessOfFitTest, StandardNormalTailFrequencies) {
  // Draws beyond +-2 and +-3 come partly from the outer layers' wedges,
  // draws beyond +-R only from the exponential tail path, and +-4.5 checks
  // that path deep in the tail. Each one-sided count must lie within 3.29
  // binomial standard deviations (two-sided 99.9%) of n * Phi(-t).
  Rng rng(108);
  const size_t n = 8000000;
  const double t[] = {2.0, 3.0, NormalZiggurat::kR, 4.5};
  size_t above[4] = {}, below[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const double x = SampleStandardNormal(rng);
    for (int k = 0; k < 4; ++k) {
      above[k] += x > t[k];
      below[k] += x < -t[k];
    }
  }
  for (int k = 0; k < 4; ++k) {
    const double p = NormalCdf(-t[k], 0.0, 1.0);
    const double mean = static_cast<double>(n) * p;
    const double bound = 3.29 * std::sqrt(mean * (1.0 - p)) + 1.0;
    EXPECT_NEAR(static_cast<double>(above[k]), mean, bound) << "x > " << t[k];
    EXPECT_NEAR(static_cast<double>(below[k]), mean, bound) << "x < -" << t[k];
  }
}

TEST(GoodnessOfFitTest, StandardNormalLagOneCorrelationNearZero) {
  Rng rng(109);
  const size_t n = 1000000;
  std::vector<double> xs(n);
  for (double& x : xs) x = SampleStandardNormal(rng);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (size_t i = 0; i < n; ++i) {
    var += (xs[i] - mean) * (xs[i] - mean);
    if (i + 1 < n) cov += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  // Under independence r is ~N(0, 1/n); 3.29 sd is the 99.9% bound.
  EXPECT_LT(std::fabs(cov / var), 3.29 / std::sqrt(static_cast<double>(n)));
}

/// BatchRng runs the same ziggurat over raw blocks, with the slow path on
/// a private scalar generator; these mirror the scalar tests above over
/// FillNormal, drawn in chunks that are not a multiple of the 64-draw
/// block so buffered and direct blocks both contribute.
template <typename Fn>
void ForEachBatchNormal(uint64_t seed, size_t n, Fn&& fn) {
  Rng seeder(seed);
  BatchRng batch(seeder);
  std::vector<double> chunk(4000);
  for (size_t done = 0; done < n; done += chunk.size()) {
    const size_t take = std::min(chunk.size(), n - done);
    batch.FillNormal(chunk.data(), take);
    for (size_t i = 0; i < take; ++i) fn(chunk[i]);
  }
}

TEST(GoodnessOfFitTest, BatchNormal256EqualProbabilityBins) {
  const size_t n = 4000000;
  std::vector<size_t> counts(256, 0);
  ForEachBatchNormal(207, n, [&](double x) {
    const double p = NormalCdf(x, 0.0, 1.0);
    ++counts[std::min<size_t>(static_cast<size_t>(p * 256.0), 255)];
  });
  // 255 dof, 99.9% quantile ~ 330.5 (Wilson-Hilferty).
  EXPECT_LT(ChiSquare(counts, std::vector<double>(256, 1.0 / 256), n), 330.5);
}

TEST(GoodnessOfFitTest, BatchNormalTailFrequencies) {
  // Beyond +-R every draw comes from the exponential tail on the private
  // generator; +-2 and +-3 mix fast accepts and wedges.
  const size_t n = 8000000;
  const double t[] = {2.0, 3.0, NormalZiggurat::kR, 4.5};
  size_t above[4] = {}, below[4] = {};
  ForEachBatchNormal(208, n, [&](double x) {
    for (int k = 0; k < 4; ++k) {
      above[k] += x > t[k];
      below[k] += x < -t[k];
    }
  });
  for (int k = 0; k < 4; ++k) {
    const double p = NormalCdf(-t[k], 0.0, 1.0);
    const double mean = static_cast<double>(n) * p;
    const double bound = 3.29 * std::sqrt(mean * (1.0 - p)) + 1.0;
    EXPECT_NEAR(static_cast<double>(above[k]), mean, bound) << "x > " << t[k];
    EXPECT_NEAR(static_cast<double>(below[k]), mean, bound) << "x < -" << t[k];
  }
}

TEST(GoodnessOfFitTest, BatchNormalLagOneCorrelationNearZero) {
  // Neighbours in the output come from different lanes (raw word j is lane
  // j % 4), so this also checks the lanes are not correlated.
  const size_t n = 4000000;
  std::vector<double> xs;
  xs.reserve(n);
  ForEachBatchNormal(209, n, [&](double x) { xs.push_back(x); });
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(n);
  double cov = 0.0, var = 0.0;
  for (size_t i = 0; i < n; ++i) {
    var += (xs[i] - mean) * (xs[i] - mean);
    if (i + 1 < n) cov += (xs[i] - mean) * (xs[i + 1] - mean);
  }
  // Under independence r is ~N(0, 1/n); 3.29 sd is the 99.9% bound.
  EXPECT_LT(std::fabs(cov / var), 3.29 / std::sqrt(static_cast<double>(n)));
}

TEST(GoodnessOfFitTest, ExponentialQuartiles) {
  Rng rng(103);
  const size_t n = 80000;
  const double lambda = 1.7;
  // Quartile edges of Exp(lambda).
  std::vector<double> edges = {-std::log(0.75) / lambda,
                               -std::log(0.5) / lambda,
                               -std::log(0.25) / lambda};
  std::vector<size_t> counts(4, 0);
  for (size_t i = 0; i < n; ++i) {
    const double x = SampleExponential(rng, lambda);
    size_t bin = 0;
    while (bin < edges.size() && x > edges[bin]) ++bin;
    ++counts[bin];
  }
  // 3 dof, 99.9% quantile ~ 16.3.
  EXPECT_LT(ChiSquare(counts, std::vector<double>(4, 0.25), n), 16.3);
}

TEST(GoodnessOfFitTest, PoissonPmf) {
  Rng rng(104);
  const size_t n = 80000;
  const double lambda = 3.0;
  // Bins 0..7 plus ">= 8".
  std::vector<double> probs;
  double cum = 0.0;
  double p = std::exp(-lambda);
  for (int k = 0; k < 8; ++k) {
    probs.push_back(p);
    cum += p;
    p *= lambda / (k + 1);
  }
  probs.push_back(1.0 - cum);
  std::vector<size_t> counts(9, 0);
  for (size_t i = 0; i < n; ++i) {
    const int64_t x = SamplePoisson(rng, lambda);
    ++counts[std::min<int64_t>(x, 8)];
  }
  // 8 dof, 99.9% quantile ~ 26.1.
  EXPECT_LT(ChiSquare(counts, probs, n), 26.1);
}

TEST(GoodnessOfFitTest, DiscreteVgMatchesWeights) {
  mcdb::DiscreteVg vg;
  Rng rng(105);
  const size_t n = 60000;
  std::vector<size_t> counts(3, 0);
  std::vector<table::Row> out;
  for (size_t i = 0; i < n; ++i) {
    out.clear();
    ASSERT_TRUE(vg.Generate({table::Value(1.0), table::Value(2.0),
                             table::Value(7.0)},
                            rng, &out)
                    .ok());
    ++counts[static_cast<size_t>(out[0][0].AsInt())];
  }
  // 2 dof, 99.9% quantile ~ 13.8.
  EXPECT_LT(ChiSquare(counts, {0.1, 0.2, 0.7}, n), 13.8);
}

TEST(GoodnessOfFitTest, DiscreteVgRejectsBadWeights) {
  mcdb::DiscreteVg vg;
  Rng rng(1);
  std::vector<table::Row> out;
  EXPECT_FALSE(vg.Generate({}, rng, &out).ok());
  EXPECT_FALSE(vg.Generate({table::Value(-1.0)}, rng, &out).ok());
  EXPECT_FALSE(
      vg.Generate({table::Value(0.0), table::Value(0.0)}, rng, &out).ok());
}

TEST(GoodnessOfFitTest, GammaMeanVarSkewness) {
  Rng rng(106);
  const double shape = 2.5, scale = 1.4;
  const size_t n = 100000;
  double m1 = 0, m2 = 0, m3 = 0;
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) xs.push_back(SampleGamma(rng, shape, scale));
  for (double x : xs) m1 += x;
  m1 /= n;
  for (double x : xs) {
    m2 += (x - m1) * (x - m1);
    m3 += (x - m1) * (x - m1) * (x - m1);
  }
  m2 /= n;
  m3 /= n;
  EXPECT_NEAR(m1, shape * scale, 0.03);
  EXPECT_NEAR(m2, shape * scale * scale, 0.1);
  // Skewness 2/sqrt(shape).
  EXPECT_NEAR(m3 / std::pow(m2, 1.5), 2.0 / std::sqrt(shape), 0.1);
}

}  // namespace
}  // namespace mde
