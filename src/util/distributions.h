#ifndef MDE_UTIL_DISTRIBUTIONS_H_
#define MDE_UTIL_DISTRIBUTIONS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace mde {

/// Samplers for the distributions used throughout the library. All are
/// implemented from scratch (no <random> distribution objects) so that
/// results are bit-reproducible across standard-library implementations.

/// Uniform real on [lo, hi).
double SampleUniform(Rng& rng, double lo, double hi);

/// Standard normal by the 256-layer ziggurat of Marsaglia & Tsang (2000),
/// with Doornik's (2005) fix: each attempt draws one 64-bit word whose low
/// 8 bits pick the layer and whose disjoint high 53 bits give the signed
/// abscissa, so the two are independent. About 98.5% of draws cost that one
/// word, a multiply and a compare; the rest take a wedge test (one more
/// uniform and an exp) or, in layer 0, Marsaglia's exponential tail beyond
/// R. Stateless: every draw is a pure function of the generator state.
/// BatchRng::FillNormal runs the same algorithm over its raw blocks: the
/// fast path as the simd::NormalFastBlock kernel, then NormalZigguratSlow
/// for the words it rejects.
double SampleStandardNormal(Rng& rng);

/// The ziggurat's layer tables, exposed for their tests. With
/// f(x) = exp(-x^2/2), layer i in 1..255 is the rectangle
/// [0, x[i]] x [f[i], f[i+1]] and layer 0 is the strip [0, R] x [0, f(R)]
/// plus the tail beyond R, drawn as width x[0] = V / f(R); every layer has
/// area V. x[1] = R, x[256] = 0, and f[i] = f(x[i]). x_scaled[i] is
/// x[i] * 2^-52, which lets the sampler skip scaling its integer abscissa.
/// Built once, on first use (thread-safe).
struct NormalZiggurat {
  static constexpr int kLayers = 256;
  static constexpr double kR = 3.6541528853610088;
  static constexpr double kV = 0.00492867323399;
  double x[kLayers + 1];
  double f[kLayers + 1];
  double x_scaled[kLayers];
};
const NormalZiggurat& NormalZigguratTables();

/// The ziggurat's slow path, for a first attempt word `bits` whose
/// abscissa x (see NormalFromBits) missed the fast accept: the exponential
/// tail in layer 0, signed like x, else the wedge test. Further uniforms
/// come from `rng`; a wedge reject returns a fresh SampleStandardNormal(rng).
double NormalZigguratSlow(uint64_t bits, double x, Rng& rng);

/// One standard normal whose first ziggurat attempt is the 64-bit word
/// `bits` (already drawn by the caller): the fast accept inline, anything
/// else continued on `rng`. SampleStandardNormal is this with
/// bits = rng.Next().
inline double NormalFromBits(const NormalZiggurat& z, uint64_t bits,
                             Rng& rng) {
  const size_t i = bits & 0xff;
  // Bits 11..63 as a signed 53-bit integer k: u = k * 2^-52 in [-1, 1),
  // independent of the layer's bits 0..7. Scaling by a power of two is
  // exact, so k * x_scaled[i] is u * x[i] bit for bit.
  const double k = static_cast<double>(static_cast<int64_t>(bits) >> 11);
  const double x = k * z.x_scaled[i];
  if (std::fabs(x) < z.x[i + 1]) [[likely]] return x;
  return NormalZigguratSlow(bits, x, rng);
}

/// Normal with the given mean and standard deviation (sigma >= 0).
double SampleNormal(Rng& rng, double mean, double sigma);

/// Exponential with rate lambda > 0 (mean 1/lambda).
double SampleExponential(Rng& rng, double lambda);

/// Lognormal: exp(Normal(mu, sigma)).
double SampleLognormal(Rng& rng, double mu, double sigma);

/// Gamma(shape k > 0, scale theta > 0) via Marsaglia–Tsang squeeze.
double SampleGamma(Rng& rng, double shape, double scale);

/// Beta(a, b) via two gammas.
double SampleBeta(Rng& rng, double a, double b);

/// Poisson with mean lambda >= 0. Knuth's product method for small lambda,
/// PTRS-style transformed rejection fallback for large lambda.
int64_t SamplePoisson(Rng& rng, double lambda);

/// Binomial(n, p) by inversion / waiting-time decomposition.
int64_t SampleBinomial(Rng& rng, int64_t n, double p);

/// Geometric number of failures before the first success, p in (0, 1].
int64_t SampleGeometric(Rng& rng, double p);

/// Bernoulli(p).
bool SampleBernoulli(Rng& rng, double p);

/// Discrete distribution over {0, ..., n-1} with O(1) sampling after O(n)
/// setup (Walker/Vose alias method). Weights need not be normalized.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights);

  /// Returns an index in [0, size()) with probability proportional to its
  /// weight.
  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<size_t> alias_;
};

/// Standard normal density.
double NormalPdf(double x, double mean, double sigma);

/// Log of the normal density (numerically safe for small densities).
double NormalLogPdf(double x, double mean, double sigma);

/// Standard normal CDF via erfc.
double NormalCdf(double x, double mean, double sigma);

/// Inverse standard normal CDF (Acklam's rational approximation, |err| <
/// 1.15e-9). `p` must lie in (0, 1).
double NormalQuantile(double p);

}  // namespace mde

#endif  // MDE_UTIL_DISTRIBUTIONS_H_
