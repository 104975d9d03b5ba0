#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Sample arithmetic for the benchmark: percentiles under the sample-count
/// rule, and a bounded sample buffer for phases that run millions of
/// operations.
namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank ceil(p * n), i.e. index ceil(p * n) - 1 clamped to [0, n).
/// `p` is in [0, 1]. Requires a non-empty sample.
double NearestRank(const std::vector<double>& sorted, double p);

/// Number of samples strictly beyond the nearest-rank p-th percentile.
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it: the p99 of 1000 samples qualifies, the p99 of 500 does not.
/// Medians are always reported, with their sample count.
inline constexpr size_t kMinBeyond = 10;

/// Highest percentile from the ladder 99.9, 99, 95, 90, 75 that keeps at
/// least kMinBeyond samples beyond it; 0 when none does.
double HighestSupportedPercentile(size_t n);

/// Summary of one latency sample. `tail_p` is the percentile actually
/// reported as the tail: the requested one when the sample supports it,
/// otherwise the highest one that does (see HighestSupportedPercentile).
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_p = 0.0;
  size_t tail_beyond = 0;
};

/// Sorts `samples` in place and summarizes them; `want_tail_p` is the tail
/// percentile the caller would like (e.g. 0.99).
Summary Summarize(std::vector<double>* samples, double want_tail_p);

/// Bounded, time-uniform sample: keeps every `stride`-th offered value;
/// when the buffer fills, it drops every other kept value and doubles the
/// stride. The kept values stay an evenly spaced subsample of everything
/// offered, so percentiles over them are unbiased for a stationary stream.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity = 1u << 18);

  void Add(double v);
  size_t offered() const { return offered_; }
  const std::vector<double>& kept() const { return kept_; }
  /// Appends the kept values to `out`.
  void AppendTo(std::vector<double>* out) const;

 private:
  size_t capacity_;
  size_t stride_ = 1;
  size_t countdown_ = 1;  // offers until the next kept one
  size_t offered_ = 0;
  std::vector<double> kept_;
};

/// Median of a small vector (copied, not modified); 0 when empty.
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
