#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "doe/designs.h"
#include "doe/main_effects.h"
#include "util/distributions.h"
#include "util/rng.h"

namespace mde::doe {
namespace {

TEST(FullFactorialTest, AllCombinations) {
  linalg::Matrix d = FullFactorial(3);
  EXPECT_EQ(d.rows(), 8u);
  EXPECT_EQ(d.cols(), 3u);
  std::set<std::vector<double>> rows;
  for (size_t r = 0; r < 8; ++r) {
    rows.insert({d(r, 0), d(r, 1), d(r, 2)});
  }
  EXPECT_EQ(rows.size(), 8u);
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(d), 0.0);
}

TEST(Figure3Test, ReproducesPaperDesignExactly) {
  // Figure 3 of the paper: the 2^{7-4}_III design, 8 runs x 7 factors.
  const double expected[8][7] = {
      {-1, -1, -1, 1, 1, 1, -1}, {1, -1, -1, -1, -1, 1, 1},
      {-1, 1, -1, -1, 1, -1, 1}, {1, 1, -1, 1, -1, -1, -1},
      {-1, -1, 1, 1, -1, -1, 1}, {1, -1, 1, -1, 1, -1, -1},
      {-1, 1, 1, -1, -1, 1, -1}, {1, 1, 1, 1, 1, 1, 1}};
  linalg::Matrix d = Resolution3Design7Factors();
  ASSERT_EQ(d.rows(), 8u);
  ASSERT_EQ(d.cols(), 7u);
  for (size_t r = 0; r < 8; ++r) {
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_DOUBLE_EQ(d(r, c), expected[r][c])
          << "run " << r + 1 << " factor " << c + 1;
    }
  }
  // Orthogonal columns, as the paper notes.
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(d), 0.0);
}

TEST(FractionalFactorialTest, ResolutionComputation) {
  // 2^{7-4}_III: generators of length 2 and 3 -> resolution III.
  EXPECT_EQ(DesignResolution(3, {{0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}), 3u);
  // 2^{8-4}_IV: all generators are 3-factor words -> resolution IV.
  EXPECT_EQ(DesignResolution(4, {{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}),
            4u);
  // 2^{7-2} with 4-factor generator words -> resolution IV.
  EXPECT_EQ(DesignResolution(5, {{0, 1, 2, 3}, {0, 1, 3, 4}}), 4u);
}

TEST(FractionalFactorialTest, ResolutionVDesign) {
  linalg::Matrix d = Resolution5Design8Factors();
  EXPECT_EQ(d.rows(), 64u);
  EXPECT_EQ(d.cols(), 8u);
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(d), 0.0);
  // Generators x7 = x1x2x3x4, x8 = x1x2x5x6 have 5-letter defining words
  // and a 6-letter product: resolution V exactly.
  EXPECT_EQ(DesignResolution(6, {{0, 1, 2, 3}, {0, 1, 4, 5}}), 5u);
}

TEST(FractionalFactorialTest, CannedDesignShapes) {
  linalg::Matrix r4 = Resolution4Design8Factors();
  EXPECT_EQ(r4.rows(), 16u);
  EXPECT_EQ(r4.cols(), 8u);
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(r4), 0.0);
  linalg::Matrix d32 = Design7Factors32Runs();
  EXPECT_EQ(d32.rows(), 32u);
  EXPECT_EQ(d32.cols(), 7u);
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(d32), 0.0);
}

TEST(FractionalFactorialTest, RejectsBadGenerators) {
  EXPECT_FALSE(FractionalFactorial(3, {{}}).ok());
  EXPECT_FALSE(FractionalFactorial(3, {{5}}).ok());
  EXPECT_FALSE(FractionalFactorial(0, {}).ok());
}

TEST(LatinHypercubeTest, PropertyHolds) {
  Rng rng(1);
  for (size_t factors : {2u, 5u}) {
    for (size_t levels : {9u, 17u}) {
      linalg::Matrix d = RandomLatinHypercube(factors, levels, rng);
      EXPECT_EQ(d.rows(), levels);
      EXPECT_EQ(d.cols(), factors);
      EXPECT_TRUE(IsLatinHypercube(d));
      // Levels are centered integers.
      double sum = 0.0;
      for (size_t r = 0; r < levels; ++r) sum += d(r, 0);
      EXPECT_NEAR(sum, 0.0, 1e-9);
    }
  }
}

TEST(NolhTest, SearchReducesCorrelation) {
  Rng rng1(2), rng2(2);
  linalg::Matrix random = RandomLatinHypercube(4, 17, rng1);
  linalg::Matrix nolh = NearlyOrthogonalLatinHypercube(4, 17, 200, rng2);
  EXPECT_TRUE(IsLatinHypercube(nolh));
  EXPECT_LE(MaxColumnCorrelation(nolh), MaxColumnCorrelation(random) + 1e-12);
  EXPECT_LT(MaxColumnCorrelation(nolh), 0.2);
}

TEST(Figure5Test, OrthogonalNineRunDesign) {
  linalg::Matrix d = Figure5LatinHypercube();
  EXPECT_EQ(d.rows(), 9u);
  EXPECT_EQ(d.cols(), 2u);
  EXPECT_TRUE(IsLatinHypercube(d));
  EXPECT_DOUBLE_EQ(MaxColumnCorrelation(d), 0.0);  // exactly orthogonal
  // Levels are -4..4 in each column.
  for (size_t c = 0; c < 2; ++c) {
    std::set<double> levels;
    for (size_t r = 0; r < 9; ++r) levels.insert(d(r, c));
    EXPECT_EQ(*levels.begin(), -4.0);
    EXPECT_EQ(*levels.rbegin(), 4.0);
    EXPECT_EQ(levels.size(), 9u);
  }
}

TEST(ScaleDesignTest, MapsToRanges) {
  linalg::Matrix d = Figure5LatinHypercube();
  auto scaled = ScaleDesign(d, {0.0, 10.0}, {1.0, 20.0});
  ASSERT_TRUE(scaled.ok());
  double min0 = 1e9, max0 = -1e9;
  for (size_t r = 0; r < 9; ++r) {
    min0 = std::min(min0, scaled.value()(r, 0));
    max0 = std::max(max0, scaled.value()(r, 0));
  }
  EXPECT_DOUBLE_EQ(min0, 0.0);
  EXPECT_DOUBLE_EQ(max0, 1.0);
  EXPECT_FALSE(ScaleDesign(d, {1.0}, {2.0}).ok());       // arity
  EXPECT_FALSE(ScaleDesign(d, {1.0, 1.0}, {0.0, 2.0}).ok());  // lo >= hi
}

TEST(MaominTest, DistanceComputation) {
  linalg::Matrix d = linalg::Matrix::FromRows({{0, 0}, {3, 4}, {0, 1}});
  EXPECT_DOUBLE_EQ(MaominDistance(d), 1.0);
}

double LinearResponse(const linalg::Matrix& d, size_t run,
                      const std::vector<double>& beta, double noise,
                      Rng& rng) {
  double y = 5.0;
  for (size_t f = 0; f < d.cols(); ++f) y += beta[f] * d(run, f);
  return y + SampleNormal(rng, 0.0, noise);
}

TEST(MainEffectsTest, RecoversCoefficientsFromResolutionIII) {
  // Figure 4 scenario: 7 factors, linear response, estimated from 8 runs.
  const std::vector<double> beta = {3.0, 0.0, -2.0, 0.5, 0.0, 1.0, 0.0};
  linalg::Matrix d = Resolution3Design7Factors();
  Rng rng(3);
  linalg::Vector y(d.rows());
  for (size_t r = 0; r < d.rows(); ++r) {
    y[r] = LinearResponse(d, r, beta, 0.01, rng);
  }
  auto effects = ComputeMainEffects(d, y);
  ASSERT_TRUE(effects.ok());
  ASSERT_EQ(effects.value().size(), 7u);
  for (size_t f = 0; f < 7; ++f) {
    // Effect = high - low = 2 * beta under +-1 coding.
    EXPECT_NEAR(effects.value()[f].effect, 2.0 * beta[f], 0.05) << "f=" << f;
    EXPECT_NEAR(effects.value()[f].high_mean - effects.value()[f].low_mean,
                effects.value()[f].effect, 1e-12);
  }
}

TEST(MainEffectsTest, ImportantFactorSelection) {
  // Factors 0 and 2 have large effects, factor 1 a small real one
  // (beta = 0.05) and factors 3-6 none. Factor 1's estimate sits near the
  // 5x-median cut, so whether it is flagged depends on the seed; what holds
  // at every seed is that the two large factors are flagged and the inert
  // ones are not.
  const std::vector<double> beta = {3.0, 0.05, -2.5, 0.0, 0.0, 0.0, 0.0};
  linalg::Matrix d = Resolution3Design7Factors();
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    linalg::Vector y(d.rows());
    for (size_t r = 0; r < d.rows(); ++r) {
      y[r] = LinearResponse(d, r, beta, 0.02, rng);
    }
    auto effects = ComputeMainEffects(d, y);
    ASSERT_TRUE(effects.ok());
    const std::vector<size_t> important =
        ImportantFactors(effects.value(), 5.0);
    const std::set<size_t> flagged(important.begin(), important.end());
    EXPECT_TRUE(flagged.count(0) && flagged.count(2)) << "seed " << seed;
    for (size_t f = 3; f < 7; ++f) {
      EXPECT_EQ(flagged.count(f), 0u) << "seed " << seed << " factor " << f;
    }
  }
}

TEST(MainEffectsTest, RejectsNonTwoLevelDesign) {
  linalg::Matrix d = Figure5LatinHypercube();  // has a 0 level
  linalg::Vector y(9, 1.0);
  EXPECT_FALSE(ComputeMainEffects(d, y).ok());
}

TEST(HalfNormalTest, ScoresSortedAndQuantilesIncreasing) {
  std::vector<MainEffect> effects = {
      {0, 0, 0, 0.1}, {1, 0, 0, -3.0}, {2, 0, 0, 0.2}, {3, 0, 0, 1.5}};
  auto pts = HalfNormalScores(effects);
  ASSERT_TRUE(pts.ok());
  ASSERT_EQ(pts.value().size(), 4u);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GE(pts.value()[i].abs_effect, pts.value()[i - 1].abs_effect);
    EXPECT_GT(pts.value()[i].quantile, pts.value()[i - 1].quantile);
  }
  EXPECT_EQ(pts.value().back().factor, 1u);  // |−3| is largest
}

TEST(RunSavingsTest, FractionalVsFullFactorialAccuracyComparable) {
  // The Section 4.2 claim: the 8-run resolution III design estimates main
  // effects of a linear 7-factor model as well as the 128-run full
  // factorial (both are orthogonal), at 1/16th the cost.
  const std::vector<double> beta = {1.0, -0.5, 2.0, 0.0, 0.25, -1.5, 0.75};
  Rng rng(5);
  linalg::Matrix frac = Resolution3Design7Factors();
  linalg::Matrix full = FullFactorial(7);
  linalg::Vector y_frac(frac.rows()), y_full(full.rows());
  for (size_t r = 0; r < frac.rows(); ++r) {
    y_frac[r] = LinearResponse(frac, r, beta, 0.05, rng);
  }
  for (size_t r = 0; r < full.rows(); ++r) {
    y_full[r] = LinearResponse(full, r, beta, 0.05, rng);
  }
  auto ef = ComputeMainEffects(frac, y_frac);
  auto eu = ComputeMainEffects(full, y_full);
  ASSERT_TRUE(ef.ok() && eu.ok());
  for (size_t f = 0; f < 7; ++f) {
    EXPECT_NEAR(ef.value()[f].effect, 2 * beta[f], 0.2);
    EXPECT_NEAR(eu.value()[f].effect, 2 * beta[f], 0.05);
  }
  EXPECT_EQ(frac.rows() * 16, full.rows());
}

}  // namespace
}  // namespace mde::doe
