#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace mde {

void RunningStat::Add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::std_error() const {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double RunningStat::half_width() const {
  if (n_ < 2) return std::numeric_limits<double>::infinity();
  return kZ95 * std_error();
}

void RunningCovariance::Add(double x, double y) {
  ++n_;
  const double n = static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx / n;
  mean_y_ += dy / n;
  c_ += dx * (y - mean_y_);
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy * (y - mean_y_);
}

double RunningCovariance::covariance() const {
  return n_ > 1 ? c_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningCovariance::correlation() const {
  if (n_ < 2) return 0.0;
  const double denom = std::sqrt(m2x_ * m2y_);
  return denom > 0.0 ? c_ / denom : 0.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = Mean(values);
  double ss = 0.0;
  for (double v : values) ss += (v - m) * (v - m);
  return ss / static_cast<double>(values.size() - 1);
}

double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

double Covariance(const std::vector<double>& x,
                  const std::vector<double>& y) {
  MDE_CHECK_EQ(x.size(), y.size());
  if (x.size() < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double s = 0.0;
  for (size_t i = 0; i < x.size(); ++i) s += (x[i] - mx) * (y[i] - my);
  return s / static_cast<double>(x.size() - 1);
}

double Correlation(const std::vector<double>& x,
                   const std::vector<double>& y) {
  const double sx = StdDev(x);
  const double sy = StdDev(y);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return Covariance(x, y) / (sx * sy);
}

double Quantile(std::vector<double> values, double q) {
  MDE_CHECK(!values.empty());
  MDE_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Autocorrelation(const std::vector<double>& values, size_t lag) {
  if (values.size() <= lag + 1) return 0.0;
  const double m = Mean(values);
  double num = 0.0;
  double den = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    den += (values[i] - m) * (values[i] - m);
  }
  if (den == 0.0) return 0.0;
  for (size_t i = 0; i + lag < values.size(); ++i) {
    num += (values[i] - m) * (values[i + lag] - m);
  }
  return num / den;
}

std::vector<size_t> Histogram(const std::vector<double>& values, double lo,
                              double hi, size_t bins) {
  MDE_CHECK_GT(bins, 0u);
  MDE_CHECK_LT(lo, hi);
  std::vector<size_t> counts(bins, 0);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (double v : values) {
    double idx = (v - lo) / width;
    long b = static_cast<long>(idx);
    b = std::clamp<long>(b, 0, static_cast<long>(bins) - 1);
    ++counts[static_cast<size_t>(b)];
  }
  return counts;
}

}  // namespace mde
