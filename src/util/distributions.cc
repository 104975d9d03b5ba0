#include "util/distributions.h"

#include <cmath>

#include "util/check.h"

namespace mde {

double SampleUniform(Rng& rng, double lo, double hi) {
  MDE_CHECK_LE(lo, hi);
  return lo + (hi - lo) * rng.NextDouble();
}

const NormalZiggurat& NormalZigguratTables() {
  static const NormalZiggurat tables = [] {
    constexpr int n = NormalZiggurat::kLayers;
    constexpr double r = NormalZiggurat::kR;
    constexpr double v = NormalZiggurat::kV;
    auto f = [](double x) { return std::exp(-0.5 * x * x); };
    NormalZiggurat t;
    t.x[0] = v / f(r);
    t.x[1] = r;
    // Each layer's top edge is where the next rectangle of area v ends.
    for (int i = 1; i < n - 1; ++i) {
      t.x[i + 1] = std::sqrt(-2.0 * std::log(v / t.x[i] + f(t.x[i])));
    }
    t.x[n] = 0.0;
    for (int i = 0; i <= n; ++i) t.f[i] = f(t.x[i]);
    for (int i = 0; i < n; ++i) t.x_scaled[i] = t.x[i] * 0x1p-52;
    return t;
  }();
  return tables;
}

namespace {

/// |Z| conditioned on |Z| > R, by Marsaglia's (1964) exponential method.
double NormalTail(Rng& rng) {
  constexpr double r = NormalZiggurat::kR;
  double x, y;
  do {
    x = -std::log1p(-rng.NextDouble()) / r;
    y = -std::log1p(-rng.NextDouble());
  } while (y + y < x * x);
  return r + x;
}

}  // namespace

double NormalZigguratSlow(uint64_t bits, double x, Rng& rng) {
  const size_t layer = bits & 0xff;
  if (layer == 0) {
    // The sign of u = k * 2^-52, where k is bits 11..63 as a signed integer.
    const double t = NormalTail(rng);
    return static_cast<int64_t>(bits) < 0 ? -t : t;
  }
  // Wedge: a uniform height in the layer, under the density or redraw.
  const NormalZiggurat& z = NormalZigguratTables();
  if (z.f[layer + 1] + (z.f[layer] - z.f[layer + 1]) * rng.NextDouble() <
      std::exp(-0.5 * x * x)) {
    return x;
  }
  return SampleStandardNormal(rng);
}

double SampleStandardNormal(Rng& rng) {
  return NormalFromBits(NormalZigguratTables(), rng.Next(), rng);
}

double SampleNormal(Rng& rng, double mean, double sigma) {
  MDE_CHECK_GE(sigma, 0.0);
  return mean + sigma * SampleStandardNormal(rng);
}

double SampleExponential(Rng& rng, double lambda) {
  MDE_CHECK_GT(lambda, 0.0);
  // -log(1-U) avoids log(0) since NextDouble() < 1.
  return -std::log1p(-rng.NextDouble()) / lambda;
}

double SampleLognormal(Rng& rng, double mu, double sigma) {
  return std::exp(SampleNormal(rng, mu, sigma));
}

double SampleGamma(Rng& rng, double shape, double scale) {
  MDE_CHECK_GT(shape, 0.0);
  MDE_CHECK_GT(scale, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then correct (Marsaglia–Tsang, section 6).
    double u = rng.NextDouble();
    while (u <= 0.0) u = rng.NextDouble();
    return SampleGamma(rng, shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = SampleStandardNormal(rng);
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = rng.NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return scale * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double SampleBeta(Rng& rng, double a, double b) {
  double x = SampleGamma(rng, a, 1.0);
  double y = SampleGamma(rng, b, 1.0);
  return x / (x + y);
}

int64_t SamplePoisson(Rng& rng, double lambda) {
  MDE_CHECK_GE(lambda, 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth: multiply uniforms until the product drops below e^-lambda.
    const double limit = std::exp(-lambda);
    int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.NextDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction, rejected below 0. For
  // lambda >= 30 the relative error is negligible for our simulation uses.
  while (true) {
    double x = lambda + std::sqrt(lambda) * SampleStandardNormal(rng);
    if (x >= -0.5) return static_cast<int64_t>(std::llround(x));
  }
}

int64_t SampleBinomial(Rng& rng, int64_t n, double p) {
  MDE_CHECK_GE(n, 0);
  MDE_CHECK(p >= 0.0 && p <= 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 30.0) {
    // Waiting-time (geometric skips) method: O(np) expected.
    const double log_q = std::log1p(-p);
    int64_t x = -1;
    double sum = 0.0;
    while (true) {
      double u = rng.NextDouble();
      while (u <= 0.0) u = rng.NextDouble();
      double g = std::floor(std::log(u) / log_q) + 1.0;
      sum += g;
      ++x;
      if (sum > static_cast<double>(n)) break;
    }
    return x;
  }
  // Normal approximation for large np, with continuity correction.
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  while (true) {
    double x = mean + sd * SampleStandardNormal(rng);
    int64_t k = static_cast<int64_t>(std::llround(x));
    if (k >= 0 && k <= n) return k;
  }
}

int64_t SampleGeometric(Rng& rng, double p) {
  MDE_CHECK(p > 0.0 && p <= 1.0);
  if (p == 1.0) return 0;
  double u = rng.NextDouble();
  while (u <= 0.0) u = rng.NextDouble();
  return static_cast<int64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

bool SampleBernoulli(Rng& rng, double p) { return rng.NextDouble() < p; }

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  MDE_CHECK_GT(n, 0u);
  double total = 0.0;
  for (double w : weights) {
    MDE_CHECK_GE(w, 0.0);
    total += w;
  }
  MDE_CHECK_GT(total, 0.0);
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;
  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.back();
    small.pop_back();
    size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) prob_[i] = 1.0;
  for (size_t i : small) prob_[i] = 1.0;  // numeric leftovers
}

size_t AliasTable::Sample(Rng& rng) const {
  size_t column = rng.NextBounded(prob_.size());
  return rng.NextDouble() < prob_[column] ? column : alias_[column];
}

double NormalPdf(double x, double mean, double sigma) {
  const double z = (x - mean) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI));
}

double NormalLogPdf(double x, double mean, double sigma) {
  const double z = (x - mean) / sigma;
  return -0.5 * z * z - std::log(sigma) - 0.5 * std::log(2.0 * M_PI);
}

double NormalCdf(double x, double mean, double sigma) {
  return 0.5 * std::erfc(-(x - mean) / (sigma * std::sqrt(2.0)));
}

double NormalQuantile(double p) {
  MDE_CHECK(p > 0.0 && p < 1.0);
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1.0 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace mde
