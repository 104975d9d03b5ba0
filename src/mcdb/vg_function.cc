#include "mcdb/vg_function.h"

#include <cmath>

#include "simd/simd.h"

namespace mde::mcdb {

using table::DataType;
using table::Row;
using table::Schema;
using table::Value;

NormalVg::NormalVg()
    : name_("Normal"),
      schema_(Schema({{"VALUE", DataType::kDouble}})) {}

Status NormalVg::Generate(const Row& params, Rng& rng,
                          std::vector<Row>* out) const {
  if (params.size() != 2) {
    return Status::InvalidArgument("Normal VG expects (mean, std)");
  }
  const double mean = params[0].AsDouble();
  const double std = params[1].AsDouble();
  if (std < 0.0) return Status::InvalidArgument("std must be >= 0");
  out->push_back({Value(SampleNormal(rng, mean, std))});
  return Status::OK();
}

bool NormalVg::GenerateScalar(const Row& params, Rng& rng,
                              double* out) const {
  // Parameters are validated BEFORE any sampling so that a false return
  // leaves `rng` untouched (Generate() on the same stream then reproduces
  // the identical draw).
  if (params.size() != 2) return false;
  const double mean = params[0].AsDouble();
  const double std = params[1].AsDouble();
  if (std < 0.0) return false;
  *out = SampleNormal(rng, mean, std);
  return true;
}

bool NormalVg::GenerateScalarN(const Row& params, Rng& rng, size_t n,
                               double* out) const {
  // Validation precedes the BatchRng seed draws so a false return leaves
  // `rng` untouched.
  if (params.size() != 2) return false;
  const double mean = params[0].AsDouble();
  const double sigma = params[1].AsDouble();
  if (sigma < 0.0) return false;
  // The ziggurat over four interleaved vectorized generator lanes
  // (util/rng.h BatchRng): fills whole simd::kRngBatch blocks of unit
  // normals, then applies the affine parameter map in one dense pass. A
  // different (but still i.i.d. N(0,1)) stream than the scalar Generate()
  // path — the N-draw contract makes only the joint distribution
  // contractual.
  BatchRng batch(rng);
  batch.FillNormal(out, n);
  simd::AffineMapF64(out, n, sigma, mean, out);
  return true;
}

UniformVg::UniformVg()
    : name_("Uniform"),
      schema_(Schema({{"VALUE", DataType::kDouble}})) {}

Status UniformVg::Generate(const Row& params, Rng& rng,
                           std::vector<Row>* out) const {
  if (params.size() != 2) {
    return Status::InvalidArgument("Uniform VG expects (lo, hi)");
  }
  const double lo = params[0].AsDouble();
  const double hi = params[1].AsDouble();
  if (lo > hi) return Status::InvalidArgument("lo must be <= hi");
  out->push_back({Value(SampleUniform(rng, lo, hi))});
  return Status::OK();
}

bool UniformVg::GenerateScalar(const Row& params, Rng& rng,
                               double* out) const {
  if (params.size() != 2) return false;
  const double lo = params[0].AsDouble();
  const double hi = params[1].AsDouble();
  if (lo > hi) return false;
  *out = SampleUniform(rng, lo, hi);
  return true;
}

bool UniformVg::GenerateScalarN(const Row& params, Rng& rng, size_t n,
                                double* out) const {
  if (params.size() != 2) return false;
  const double lo = params[0].AsDouble();
  const double hi = params[1].AsDouble();
  if (lo > hi) return false;
  // Batched unit uniforms + affine map to [lo, hi); same blocked-stream
  // caveat as NormalVg::GenerateScalarN.
  BatchRng batch(rng);
  batch.FillUniform(out, n);
  simd::AffineMapF64(out, n, hi - lo, lo, out);
  return true;
}

PoissonVg::PoissonVg()
    : name_("Poisson"),
      schema_(Schema({{"VALUE", DataType::kInt64}})) {}

Status PoissonVg::Generate(const Row& params, Rng& rng,
                           std::vector<Row>* out) const {
  if (params.size() != 1) {
    return Status::InvalidArgument("Poisson VG expects (lambda)");
  }
  const double lambda = params[0].AsDouble();
  if (lambda < 0.0) return Status::InvalidArgument("lambda must be >= 0");
  out->push_back({Value(SamplePoisson(rng, lambda))});
  return Status::OK();
}

bool PoissonVg::GenerateScalar(const Row& params, Rng& rng,
                               double* out) const {
  if (params.size() != 1) return false;
  const double lambda = params[0].AsDouble();
  if (lambda < 0.0) return false;
  // Matches Value(int64).AsDouble() on the slow path.
  *out = static_cast<double>(SamplePoisson(rng, lambda));
  return true;
}

bool PoissonVg::GenerateScalarN(const Row& params, Rng& rng, size_t n,
                                double* out) const {
  if (params.size() != 1) return false;
  const double lambda = params[0].AsDouble();
  if (lambda < 0.0) return false;
  for (size_t r = 0; r < n; ++r) {
    out[r] = static_cast<double>(SamplePoisson(rng, lambda));
  }
  return true;
}

BernoulliVg::BernoulliVg()
    : name_("Bernoulli"),
      schema_(Schema({{"VALUE", DataType::kBool}})) {}

Status BernoulliVg::Generate(const Row& params, Rng& rng,
                             std::vector<Row>* out) const {
  if (params.size() != 1) {
    return Status::InvalidArgument("Bernoulli VG expects (p)");
  }
  const double p = params[0].AsDouble();
  if (p < 0.0 || p > 1.0) return Status::InvalidArgument("p in [0,1]");
  out->push_back({Value(SampleBernoulli(rng, p))});
  return Status::OK();
}

BackwardRandomWalkVg::BackwardRandomWalkVg()
    : name_("BackwardRandomWalk"),
      schema_(Schema({{"STEP", DataType::kInt64},
                      {"VALUE", DataType::kDouble}})) {}

Status BackwardRandomWalkVg::Generate(const Row& params, Rng& rng,
                                      std::vector<Row>* out) const {
  if (params.size() != 4) {
    return Status::InvalidArgument(
        "BackwardRandomWalk VG expects (price, drift, vol, steps)");
  }
  double price = params[0].AsDouble();
  const double drift = params[1].AsDouble();
  const double vol = params[2].AsDouble();
  const int64_t steps = params[3].AsInt();
  if (price <= 0.0 || vol < 0.0 || steps < 1) {
    return Status::InvalidArgument("bad random-walk parameters");
  }
  for (int64_t s = 1; s <= steps; ++s) {
    // Invert one geometric-Brownian step to walk backwards in time.
    const double z = SampleStandardNormal(rng);
    price /= std::exp(drift - 0.5 * vol * vol + vol * z);
    out->push_back({Value(-s), Value(price)});
  }
  return Status::OK();
}

DiscreteVg::DiscreteVg()
    : name_("Discrete"),
      schema_(Schema({{"VALUE", DataType::kInt64}})) {}

Status DiscreteVg::Generate(const Row& params, Rng& rng,
                            std::vector<Row>* out) const {
  if (params.empty()) {
    return Status::InvalidArgument("Discrete VG expects >= 1 weight");
  }
  std::vector<double> weights;
  weights.reserve(params.size());
  double total = 0.0;
  for (const Value& v : params) {
    const double w = v.AsDouble();
    if (w < 0.0) return Status::InvalidArgument("weights must be >= 0");
    weights.push_back(w);
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("weights must not all be zero");
  }
  AliasTable table(weights);
  out->push_back({Value(static_cast<int64_t>(table.Sample(rng)))});
  return Status::OK();
}

bool DiscreteVg::GenerateScalar(const Row& params, Rng& rng,
                                double* out) const {
  if (params.empty()) return false;
  std::vector<double> weights;
  weights.reserve(params.size());
  double total = 0.0;
  for (const Value& v : params) {
    const double w = v.AsDouble();
    if (w < 0.0) return false;
    weights.push_back(w);
    total += w;
  }
  if (total <= 0.0) return false;
  AliasTable table(weights);
  *out = static_cast<double>(table.Sample(rng));
  return true;
}

bool DiscreteVg::GenerateScalarN(const Row& params, Rng& rng, size_t n,
                                 double* out) const {
  if (params.empty()) return false;
  std::vector<double> weights;
  weights.reserve(params.size());
  double total = 0.0;
  for (const Value& v : params) {
    const double w = v.AsDouble();
    if (w < 0.0) return false;
    weights.push_back(w);
    total += w;
  }
  if (total <= 0.0) return false;
  // One alias-table build amortized over the whole batch.
  AliasTable table(weights);
  for (size_t r = 0; r < n; ++r) {
    out[r] = static_cast<double>(table.Sample(rng));
  }
  return true;
}

BayesianDemandVg::BayesianDemandVg()
    : name_("BayesianDemand"),
      schema_(Schema({{"DEMAND", DataType::kInt64}})) {}

Status BayesianDemandVg::Generate(const Row& params, Rng& rng,
                                  std::vector<Row>* out) const {
  if (params.size() != 7) {
    return Status::InvalidArgument(
        "BayesianDemand VG expects (prior_shape, prior_rate, purchases, "
        "periods, price, ref_price, elasticity)");
  }
  const double prior_shape = params[0].AsDouble();
  const double prior_rate = params[1].AsDouble();
  const double purchases = params[2].AsDouble();
  const double periods = params[3].AsDouble();
  const double price = params[4].AsDouble();
  const double ref_price = params[5].AsDouble();
  const double elasticity = params[6].AsDouble();
  if (prior_shape <= 0.0 || prior_rate <= 0.0 || periods < 0.0 ||
      ref_price <= 0.0 || price <= 0.0) {
    return Status::InvalidArgument("bad demand parameters");
  }
  // Gamma-Poisson conjugacy: posterior rate parameter for this customer.
  const double post_shape = prior_shape + purchases;
  const double post_rate = prior_rate + periods;
  const double base_rate = SampleGamma(rng, post_shape, 1.0 / post_rate);
  // Constant-elasticity price response.
  const double rate = base_rate * std::pow(price / ref_price, -elasticity);
  out->push_back({Value(SamplePoisson(rng, rate))});
  return Status::OK();
}

bool BayesianDemandVg::GenerateScalar(const Row& params, Rng& rng,
                                      double* out) const {
  if (params.size() != 7) return false;
  const double prior_shape = params[0].AsDouble();
  const double prior_rate = params[1].AsDouble();
  const double purchases = params[2].AsDouble();
  const double periods = params[3].AsDouble();
  const double price = params[4].AsDouble();
  const double ref_price = params[5].AsDouble();
  const double elasticity = params[6].AsDouble();
  if (prior_shape <= 0.0 || prior_rate <= 0.0 || periods < 0.0 ||
      ref_price <= 0.0 || price <= 0.0) {
    return false;
  }
  const double post_shape = prior_shape + purchases;
  const double post_rate = prior_rate + periods;
  const double base_rate = SampleGamma(rng, post_shape, 1.0 / post_rate);
  const double rate = base_rate * std::pow(price / ref_price, -elasticity);
  *out = static_cast<double>(SamplePoisson(rng, rate));
  return true;
}

}  // namespace mde::mcdb
