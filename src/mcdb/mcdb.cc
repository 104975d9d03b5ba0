#include "mcdb/mcdb.h"

#include "util/check.h"

namespace mde::mcdb {

Status MonteCarloDb::AddTable(const std::string& name, table::Table t) {
  if (deterministic_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  // Columnar-backed tables make the per-repetition copy in Instantiate()
  // a shared-pointer copy; tables only read through queries never pay for
  // row materialization.
  deterministic_.emplace(name,
                         table::Table::FromColumnar(t.ToColumnar().value()));
  return Status::OK();
}

Status MonteCarloDb::AddStochasticTable(StochasticTableSpec spec) {
  if (deterministic_.count(spec.name) > 0) {
    return Status::AlreadyExists("table exists: " + spec.name);
  }
  for (const auto& s : specs_) {
    if (s.name == spec.name) {
      return Status::AlreadyExists("stochastic table exists: " + spec.name);
    }
  }
  if (deterministic_.count(spec.outer_table) == 0) {
    return Status::NotFound("FOR EACH table not found: " + spec.outer_table);
  }
  if (!spec.vg || !spec.param_binder || !spec.projector) {
    return Status::InvalidArgument("incomplete stochastic table spec");
  }
  specs_.push_back(std::move(spec));
  return Status::OK();
}

const table::Table* MonteCarloDb::FindTable(const std::string& name) const {
  auto it = deterministic_.find(name);
  return it == deterministic_.end() ? nullptr : &it->second;
}

Result<DatabaseInstance> MonteCarloDb::Instantiate(uint64_t seed,
                                                   uint64_t rep) const {
  DatabaseInstance instance = deterministic_;
  Rng rng = Rng::Substream(seed, rep);
  for (const auto& spec : specs_) {
    const table::Table& outer = instance.at(spec.outer_table);
    table::Table realized(spec.output_schema);
    realized.Reserve(outer.num_rows());  // >= one realized row per outer row
    std::vector<table::Row> vg_rows;
    for (const table::Row& outer_row : outer.rows()) {
      MDE_ASSIGN_OR_RETURN(table::Row params,
                           spec.param_binder(outer_row, instance));
      vg_rows.clear();
      MDE_RETURN_NOT_OK(spec.vg->Generate(params, rng, &vg_rows));
      for (const table::Row& vg_row : vg_rows) {
        realized.Append(spec.projector(outer_row, vg_row));
      }
    }
    instance.emplace(spec.name, std::move(realized));
  }
  return instance;
}

Result<std::vector<double>> MonteCarloDb::RunNaive(const ScalarQuery& query,
                                                   size_t repetitions,
                                                   uint64_t seed) const {
  std::vector<double> samples;
  samples.reserve(repetitions);
  for (size_t rep = 0; rep < repetitions; ++rep) {
    MDE_ASSIGN_OR_RETURN(DatabaseInstance instance, Instantiate(seed, rep));
    MDE_ASSIGN_OR_RETURN(double value, query(instance));
    samples.push_back(value);
  }
  return samples;
}

}  // namespace mde::mcdb
