#ifndef MDE_MCDB_VG_FUNCTION_H_
#define MDE_MCDB_VG_FUNCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "table/table.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/status.h"

namespace mde::mcdb {

/// Variable Generation (VG) function: the MCDB mechanism for attaching an
/// arbitrary stochastic model to a database (Section 2.1). A call generates
/// a pseudorandom realization of one or more uncertain values, parameterized
/// by a row of parameters that MCDB obtains from a SQL query over the
/// non-random tables.
class VgFunction {
 public:
  virtual ~VgFunction() = default;

  virtual const std::string& name() const = 0;

  /// Schema of the rows this function generates per call.
  virtual const table::Schema& output_schema() const = 0;

  /// Appends one realization (possibly several correlated rows) to `out`,
  /// given the bound parameter row.
  virtual Status Generate(const table::Row& params, Rng& rng,
                          std::vector<table::Row>* out) const = 0;

  /// Allocation-free fast path for single-row, single-numeric-column VG
  /// functions: writes one realization to *out and returns true, or returns
  /// false when this function has no scalar form (multi-row output, invalid
  /// parameters, non-numeric value). A false return must not have consumed
  /// any randomness from `rng`, so callers can fall back to Generate() on
  /// the same stream and observe identical samples. The tuple-bundle
  /// generator calls this once per (row, rep) — the point is to skip the
  /// table::Row / Value boxing that dominates the naive path.
  virtual bool GenerateScalar(const table::Row& params, Rng& rng,
                              double* out) const {
    (void)params;
    (void)rng;
    (void)out;
    return false;
  }

  /// Batch form of GenerateScalar: writes `n` independent realizations to
  /// out[0..n). The bundle generator calls this once per tuple with that
  /// tuple's private substream, so overrides may validate and bind
  /// parameters once and sample in a tight loop (and may use a blocked
  /// sampling scheme — e.g. BatchRng's ziggurat over raw blocks — so the
  /// realized values need not equal n unit GenerateScalar calls; only the
  /// joint distribution is contractual). A false return must leave
  /// `rng` untouched. The default delegates to GenerateScalar, whose
  /// param-dependent failure is decided before any sampling, so a false
  /// unit call can only happen at i == 0.
  virtual bool GenerateScalarN(const table::Row& params, Rng& rng, size_t n,
                               double* out) const {
    for (size_t i = 0; i < n; ++i) {
      if (!GenerateScalar(params, rng, out + i)) return false;
    }
    return true;
  }
};

/// Normal VG function: params = (mean, std); generates one row (VALUE).
/// This is the paper's SBP_DATA example.
class NormalVg : public VgFunction {
 public:
  NormalVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;
  bool GenerateScalar(const table::Row& params, Rng& rng,
                      double* out) const override;
  /// Blocked sampler: BatchRng's ziggurat fills the block (one raw word
  /// per first attempt), then one affine pass.
  bool GenerateScalarN(const table::Row& params, Rng& rng, size_t n,
                       double* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Uniform VG function: params = (lo, hi); one row (VALUE).
class UniformVg : public VgFunction {
 public:
  UniformVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;
  bool GenerateScalar(const table::Row& params, Rng& rng,
                      double* out) const override;
  bool GenerateScalarN(const table::Row& params, Rng& rng, size_t n,
                       double* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Poisson VG function: params = (lambda); one row (VALUE, int64).
class PoissonVg : public VgFunction {
 public:
  PoissonVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;
  bool GenerateScalar(const table::Row& params, Rng& rng,
                      double* out) const override;
  bool GenerateScalarN(const table::Row& params, Rng& rng, size_t n,
                       double* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Bernoulli VG function: params = (p); one row (VALUE, bool).
class BernoulliVg : public VgFunction {
 public:
  BernoulliVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Backward geometric random walk, the paper's "estimate missing prior
/// prices" example: params = (current_price, drift, volatility, steps);
/// generates `steps` rows (STEP, VALUE) walking backwards from the current
/// price.
class BackwardRandomWalkVg : public VgFunction {
 public:
  BackwardRandomWalkVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Discrete (categorical) VG function: params = (w_1, ..., w_k) unnormalized
/// category weights; one row (VALUE, int64 in [0, k)). Uses O(1) alias-table
/// sampling per draw for a fixed weight vector; weights are rebuilt per call
/// since MCDB re-parameterizes per outer row.
class DiscreteVg : public VgFunction {
 public:
  DiscreteVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;
  bool GenerateScalar(const table::Row& params, Rng& rng,
                      double* out) const override;
  /// Builds the alias table ONCE for the whole batch — the unit call pays
  /// the O(k) table build per draw.
  bool GenerateScalarN(const table::Row& params, Rng& rng, size_t n,
                       double* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

/// Bayesian customer-demand VG function, the paper's personalized-demand
/// example: a global demand prior (Gamma) is updated with the customer's
/// own purchase history via conjugate Bayes, then a demand count is drawn
/// from Poisson(rate * price_sensitivity(price)).
/// params = (prior_shape, prior_rate, customer_purchases, customer_periods,
///           price, reference_price, elasticity); one row (DEMAND, int64).
class BayesianDemandVg : public VgFunction {
 public:
  BayesianDemandVg();
  const std::string& name() const override { return name_; }
  const table::Schema& output_schema() const override { return schema_; }
  Status Generate(const table::Row& params, Rng& rng,
                  std::vector<table::Row>* out) const override;
  bool GenerateScalar(const table::Row& params, Rng& rng,
                      double* out) const override;

 private:
  std::string name_;
  table::Schema schema_;
};

}  // namespace mde::mcdb

#endif  // MDE_MCDB_VG_FUNCTION_H_
