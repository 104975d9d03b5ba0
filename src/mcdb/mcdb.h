#ifndef MDE_MCDB_MCDB_H_
#define MDE_MCDB_MCDB_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mcdb/vg_function.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace mde::mcdb {

/// A realized (ordinary) database: one concrete table per registered name.
using DatabaseInstance = std::map<std::string, table::Table>;

/// Declarative specification of a stochastic table, mirroring MCDB's
///   CREATE TABLE name AS FOR EACH row IN outer
///     WITH X AS VG(<param query>) SELECT <projection>
/// The FOR EACH loop runs over `outer_table`; for each outer row the
/// `param_binder` produces the VG parameter row (it may consult the whole
/// deterministic database, which is how "parametrized by an SQL query over
/// the non-random relations" is modeled); `projector` combines the outer
/// row with each VG output row into an output row, and the per-row results
/// are UNIONed into the realization.
struct StochasticTableSpec {
  std::string name;
  std::string outer_table;
  std::shared_ptr<const VgFunction> vg;
  std::function<Result<table::Row>(const table::Row& outer,
                                   const DatabaseInstance& det)>
      param_binder;
  table::Schema output_schema;
  std::function<table::Row(const table::Row& outer, const table::Row& vg_row)>
      projector;
};

/// The Monte Carlo Database (Section 2.1): ordinary deterministic tables
/// plus stochastic table specifications. Instantiate() realizes every
/// stochastic table, yielding an ordinary database instance; running a
/// query over successive instances yields samples from the query-result
/// distribution.
class MonteCarloDb {
 public:
  /// Registers a deterministic table. Fails on duplicate names.
  Status AddTable(const std::string& name, table::Table t);

  /// Registers a stochastic table spec (its outer table must exist).
  Status AddStochasticTable(StochasticTableSpec spec);

  const table::Table* FindTable(const std::string& name) const;

  /// The registered deterministic tables, by name (no copy). What a spec's
  /// param_binder sees when bundles are generated.
  const DatabaseInstance& deterministic_tables() const {
    return deterministic_;
  }

  /// Realizes all stochastic tables using replication substream `rep` of
  /// `seed`, returning the deterministic tables plus realized stochastic
  /// tables.
  Result<DatabaseInstance> Instantiate(uint64_t seed, uint64_t rep) const;

  /// A query evaluated against a realized instance, returning one real
  /// scalar (e.g. total revenue).
  using ScalarQuery =
      std::function<Result<double>(const DatabaseInstance&)>;

  /// Naive Monte Carlo loop: instantiate + run the query plan once per
  /// repetition. This is the baseline the tuple-bundle executor beats.
  Result<std::vector<double>> RunNaive(const ScalarQuery& query,
                                       size_t repetitions,
                                       uint64_t seed) const;

  const std::vector<StochasticTableSpec>& stochastic_specs() const {
    return specs_;
  }

 private:
  DatabaseInstance deterministic_;
  std::vector<StochasticTableSpec> specs_;
};

}  // namespace mde::mcdb

#endif  // MDE_MCDB_MCDB_H_
