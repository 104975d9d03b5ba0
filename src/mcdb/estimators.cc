#include "mcdb/estimators.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mde::mcdb {

Result<MonteCarloSummary> Summarize(const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("no samples to summarize");
  }
  MonteCarloSummary s;
  RunningStat rs;
  for (double v : samples) rs.Add(v);
  s.n = samples.size();
  s.mean = rs.mean();
  s.variance = rs.variance();
  s.std_error = rs.std_error();
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  s.min = *lo;
  s.max = *hi;
  s.median = Quantile(samples, 0.5);
  s.q05 = Quantile(samples, 0.05);
  s.q95 = Quantile(samples, 0.95);
  // Publish the 95% CLT half-width of this aggregate so sampled time
  // series show Monte Carlo precision per summarized result set. Exporters
  // expect finite gauges, so the n < 2 infinity stays in-process.
  if (rs.count() >= 2) {
    MDE_OBS_GAUGE_SET("mcdb.ci_halfwidth", rs.half_width());
  }
  MDE_OBS_GAUGE_SET("mcdb.ci_halfwidth.n", rs.count());
  return s;
}

Result<ThresholdEstimate> ThresholdProbability(
    const std::vector<double>& samples, double threshold, double level) {
  if (samples.empty()) return Status::InvalidArgument("no samples");
  if (level <= 0.0 || level >= 1.0) {
    return Status::InvalidArgument("level must be in (0,1)");
  }
  size_t hits = 0;
  for (double v : samples) {
    if (v > threshold) ++hits;
  }
  const double n = static_cast<double>(samples.size());
  ThresholdEstimate est;
  est.probability = static_cast<double>(hits) / n;
  const double z = NormalQuantile(0.5 + level / 2.0);
  est.half_width =
      z * std::sqrt(est.probability * (1.0 - est.probability) / n);
  return est;
}

Result<QuantileEstimate> ExtremeQuantile(std::vector<double> samples,
                                         double p, double level) {
  if (samples.empty()) return Status::InvalidArgument("no samples");
  if (p <= 0.0 || p >= 1.0) {
    return Status::InvalidArgument("p must be in (0,1)");
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  QuantileEstimate est;
  est.value = Quantile(samples, p);
  // Distribution-free CI: the p-quantile lies between order statistics
  // X_(l) and X_(u) where l and u bracket np by z*sqrt(np(1-p)).
  const double z = NormalQuantile(0.5 + level / 2.0);
  const double center = p * static_cast<double>(n);
  const double spread = z * std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  long lo = static_cast<long>(std::floor(center - spread)) - 1;
  long hi = static_cast<long>(std::ceil(center + spread)) - 1;
  lo = std::clamp<long>(lo, 0, static_cast<long>(n) - 1);
  hi = std::clamp<long>(hi, 0, static_cast<long>(n) - 1);
  est.ci_low = samples[static_cast<size_t>(lo)];
  est.ci_high = samples[static_cast<size_t>(hi)];
  return est;
}

Result<BootstrapCi> BootstrapConfidenceInterval(
    const std::vector<double>& samples,
    const std::function<double(const std::vector<double>&)>& statistic,
    size_t resamples, double level, uint64_t seed, ThreadPool* pool) {
  if (samples.size() < 2) return Status::InvalidArgument("need >= 2 samples");
  if (resamples < 10) return Status::InvalidArgument("need >= 10 resamples");
  if (level <= 0.0 || level >= 1.0) {
    return Status::InvalidArgument("level must be in (0,1)");
  }
  // Each replicate b owns substream seed^mix(b), so stats[b] does not
  // depend on which thread computes it (or whether a pool is used at all).
  std::vector<double> stats(resamples, 0.0);
  auto run_range = [&](size_t, size_t begin, size_t end) {
    std::vector<double> resample(samples.size());  // per-chunk scratch
    for (size_t b = begin; b < end; ++b) {
      Rng rng = Rng::Keyed(seed, b);
      for (size_t i = 0; i < samples.size(); ++i) {
        resample[i] = samples[rng.NextBounded(samples.size())];
      }
      stats[b] = statistic(resample);
    }
  };
  if (pool != nullptr) {
    pool->ParallelForChunks(resamples, /*grain=*/0, run_range);
  } else {
    run_range(0, 0, resamples);
  }
  BootstrapCi ci;
  ci.estimate = statistic(samples);
  ci.lo = Quantile(stats, (1.0 - level) / 2.0);
  ci.hi = Quantile(stats, 0.5 + level / 2.0);
  return ci;
}

Result<std::vector<std::string>> GroupsExceedingThreshold(
    const std::vector<GroupSamples>& groups, double threshold,
    double min_probability) {
  std::vector<std::string> out;
  for (const auto& g : groups) {
    MDE_ASSIGN_OR_RETURN(ThresholdEstimate est,
                         ThresholdProbability(g.samples, threshold, 0.95));
    if (est.probability >= min_probability) out.push_back(g.group);
  }
  return out;
}

}  // namespace mde::mcdb
