// Known-answer coverage of the engine's one estimator: over many seeds, the
// 95% CLT interval mean ± RunningStat::half_width() must contain the true
// mean about 95% of the time. Bit-identity tests cannot show this; it is
// the statistical half of the correctness contract.

#include <cmath>
#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "util/distributions.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mde {
namespace {

constexpr int kSeeds = 2000;
constexpr int kDraws = 200;
// 95% ± 3 binomial standard deviations over kSeeds intervals:
// 3 * sqrt(0.95 * 0.05 / 2000) = 0.0146, rounded out to 0.015.
constexpr double kLo = 0.935;
constexpr double kHi = 0.965;

/// Share of seeds whose fixed-n 95% interval covers `truth`.
double Coverage(const std::function<double(Rng&)>& draw, double truth) {
  int covered = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1);
    RunningStat stat;
    for (int i = 0; i < kDraws; ++i) stat.Add(draw(rng));
    if (std::abs(stat.mean() - truth) <= stat.half_width()) ++covered;
  }
  return static_cast<double>(covered) / kSeeds;
}

TEST(EstimatorCoverageTest, NormalMeanCoveredAtNominalRate) {
  const double c =
      Coverage([](Rng& rng) { return SampleNormal(rng, 3.0, 2.0); }, 3.0);
  EXPECT_GE(c, kLo);
  EXPECT_LE(c, kHi);
}

TEST(EstimatorCoverageTest, PoissonMeanCoveredAtNominalRate) {
  const double c = Coverage(
      [](Rng& rng) { return static_cast<double>(SamplePoisson(rng, 4.5)); },
      4.5);
  EXPECT_GE(c, kLo);
  EXPECT_LE(c, kHi);
}

}  // namespace
}  // namespace mde
