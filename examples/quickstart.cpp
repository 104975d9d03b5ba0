/// Quickstart: the MCDB workflow from Section 2.1 of the paper in ~80
/// lines. We register a deterministic CUSTOMERS table, attach a stochastic
/// DEMAND table driven by the BayesianDemand VG function, and ask the
/// paper's question: "how would revenue from East-Coast customers under 30
/// have been affected by a 5% price increase?" — answered as a Monte Carlo
/// distribution, not a single number.

#include <cmath>
#include <cstdio>

#include "mcdb/estimators.h"
#include "util/check.h"
#include "mcdb/mcdb.h"
#include "mcdb/vg_function.h"
#include "obs/http.h"
#include "table/query.h"

using mde::mcdb::DatabaseInstance;
using mde::mcdb::MonteCarloDb;
using mde::table::DataType;
using mde::table::Row;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

namespace {

MonteCarloDb BuildDatabase(double price_multiplier) {
  MonteCarloDb db;
  Table customers{Schema({{"cid", DataType::kInt64},
                          {"region", DataType::kString},
                          {"age", DataType::kInt64},
                          {"purchases", DataType::kDouble},
                          {"periods", DataType::kDouble},
                          {"price", DataType::kDouble}})};
  mde::Rng rng(4);
  for (int64_t c = 0; c < 400; ++c) {
    customers.Append(
        {Value(c), Value(c % 3 == 0 ? "EAST" : "WEST"),
         Value(static_cast<int64_t>(18 + rng.NextBounded(60))),
         Value(static_cast<double>(rng.NextBounded(40))),
         Value(20.0), Value(10.0 * price_multiplier)});
  }
  MDE_CHECK(db.AddTable("CUSTOMERS", std::move(customers)).ok());

  mde::mcdb::StochasticTableSpec demand;
  demand.name = "DEMAND";
  demand.outer_table = "CUSTOMERS";
  demand.vg = std::make_shared<mde::mcdb::BayesianDemandVg>();
  demand.param_binder = [](const Row& c, const DatabaseInstance&)
      -> mde::Result<Row> {
    // Global Gamma prior, personalized by each customer's history.
    return Row{Value(2.0),  Value(1.0),  c[3],        c[4],
               c[5],        Value(10.0), Value(1.4)};
  };
  demand.output_schema = Schema({{"cid", DataType::kInt64},
                                 {"region", DataType::kString},
                                 {"age", DataType::kInt64},
                                 {"price", DataType::kDouble},
                                 {"units", DataType::kInt64}});
  demand.projector = [](const Row& c, const Row& vg) {
    return Row{c[0], c[1], c[2], c[5], vg[0]};
  };
  MDE_CHECK(db.AddStochasticTable(std::move(demand)).ok());
  return db;
}

/// Revenue from East-Coast customers under 30 in one database instance.
mde::Result<double> TargetRevenue(const DatabaseInstance& instance) {
  MDE_ASSIGN_OR_RETURN(
      Table subset,
      mde::table::Query(instance.at("DEMAND"))
          .Where("region", mde::table::CmpOp::kEq, "EAST")
          .Where("age", mde::table::CmpOp::kLt, int64_t{30})
          .Select({"price", "units"})
          .Execute());
  double revenue = 0.0;
  for (const Row& r : subset.rows()) {
    revenue += r[0].AsDouble() * static_cast<double>(r[1].AsInt());
  }
  return revenue;
}

void Report(const char* label, const std::vector<double>& samples) {
  auto s = mde::mcdb::Summarize(samples).value();
  std::printf("%-22s mean=%9.1f  sd=%7.1f  [q05=%9.1f  q95=%9.1f]\n", label,
              s.mean, std::sqrt(s.variance), s.q05, s.q95);
}

}  // namespace

int main() {
  mde::obs::DiagServer::MaybeStartFromEnv();
  std::printf("MCDB quickstart: revenue under uncertainty (Section 2.1)\n\n");
  const size_t reps = 200;

  MonteCarloDb base = BuildDatabase(1.00);
  MonteCarloDb raised = BuildDatabase(1.05);
  auto base_samples = base.RunNaive(TargetRevenue, reps, 42).value();
  auto raised_samples = raised.RunNaive(TargetRevenue, reps, 42).value();

  Report("current price:", base_samples);
  Report("with 5% increase:", raised_samples);

  std::vector<double> delta(reps);
  for (size_t i = 0; i < reps; ++i) {
    delta[i] = raised_samples[i] - base_samples[i];
  }
  Report("revenue change:", delta);
  auto prob =
      mde::mcdb::ThresholdProbability(delta, 0.0, 0.95).value();
  std::printf("\nP(revenue increases) = %.2f +- %.2f\n", prob.probability,
              prob.half_width);
  return 0;
}
