#ifndef MDE_UTIL_STATS_H_
#define MDE_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mde {

/// The engine's one Monte Carlo estimator: a numerically stable running
/// mean/variance accumulator (Welford's algorithm) and its 95% CLT
/// half-width. (n, mean, m2) is a sufficient statistic for both, which is
/// what the result cache stores per answer. Merge() combines parallel
/// partial accumulations (Chan et al.), which the Monte Carlo executors
/// rely on.
class RunningStat {
 public:
  /// Two-sided 95% normal critical value.
  static constexpr double kZ95 = 1.959964;

  void Add(double x);
  /// Combines `other` into this accumulator.
  void Merge(const RunningStat& other);

  size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (divides by n-1); 0 when n < 2.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double std_error() const;
  /// kZ95 * std_error(). With n < 2 no CLT bound exists, so the half-width
  /// is +infinity, not zero: a one-draw "estimate" that claimed zero error
  /// would satisfy any precision target and poison a result cache.
  double half_width() const;

  /// Complete accumulator state, for checkpoints: restoring it and
  /// continuing the stream is bit-identical to never having stopped.
  struct State {
    uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
  };
  State state() const { return {n_, mean_, m2_}; }
  void set_state(const State& s) {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
  }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Running covariance accumulator for paired observations.
class RunningCovariance {
 public:
  void Add(double x, double y);
  size_t count() const { return n_; }
  double mean_x() const { return mean_x_; }
  double mean_y() const { return mean_y_; }
  /// Sample covariance (divides by n-1); 0 when n < 2.
  double covariance() const;
  double correlation() const;

 private:
  size_t n_ = 0;
  double mean_x_ = 0.0;
  double mean_y_ = 0.0;
  double c_ = 0.0;
  double m2x_ = 0.0;
  double m2y_ = 0.0;
};

/// Mean of `values`; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Sample variance of `values` (n-1 denominator); 0 when size < 2.
double Variance(const std::vector<double>& values);

double StdDev(const std::vector<double>& values);

/// Sample covariance between x and y (must be the same length).
double Covariance(const std::vector<double>& x, const std::vector<double>& y);

/// Pearson correlation; 0 if either side is constant.
double Correlation(const std::vector<double>& x, const std::vector<double>& y);

/// q-quantile (q in [0,1]) by linear interpolation between order statistics
/// (type-7, the R/NumPy default). Copies and partially sorts internally.
double Quantile(std::vector<double> values, double q);

/// Lag-k sample autocorrelation.
double Autocorrelation(const std::vector<double>& values, size_t lag);

/// Equi-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
std::vector<size_t> Histogram(const std::vector<double>& values, double lo,
                              double hi, size_t bins);

}  // namespace mde

#endif  // MDE_UTIL_STATS_H_
