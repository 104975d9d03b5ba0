/// E1 — Section 2.1: tuple-bundle query execution vs the naive
/// instantiate-per-repetition loop. Both compute the same query-result
/// distribution (mean SBP of female patients); the bundle executor runs
/// the plan once over bundled values. The benchmark sweeps Monte Carlo
/// repetition counts, plus a large 10k-tuple x 1k-rep configuration that
/// exercises the columnar kernels (its perfbench counterpart is mapped in
/// perfbench/README.md).

#include <cmath>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "util/check.h"

#include "bench_main.h"
#include "mcdb/bundle.h"
#include "mcdb/estimators.h"
#include "mcdb/mcdb.h"
#include "mcdb/pregen.h"
#include "mcdb/vg_function.h"
#include "table/query.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mde;        // NOLINT
using namespace mde::mcdb;  // NOLINT
using table::CmpOp;
using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

MonteCarloDb MakeDb(size_t patients) {
  MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  MDE_CHECK(db.AddTable("PATIENTS", std::move(p)).ok());
  Table param{Schema({{"MEAN", DataType::kDouble},
                      {"STD", DataType::kDouble}})};
  param.Append({Value(120.0), Value(15.0)});
  MDE_CHECK(db.AddTable("SBP_PARAM", std::move(param)).ok());
  StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<NormalVg>();
  spec.param_binder = [](const Row&, const DatabaseInstance& det)
      -> Result<Row> {
    const Table& prm = det.at("SBP_PARAM");
    return Row{prm.row(0)[0], prm.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  MDE_CHECK(db.AddStochasticTable(std::move(spec)).ok());
  return db;
}

std::vector<double> RunNaiveQuery(const MonteCarloDb& db, size_t reps) {
  auto query = [](const DatabaseInstance& inst) -> Result<double> {
    MDE_ASSIGN_OR_RETURN(
        Value avg,
        table::Query(inst.at("SBP_DATA"))
            .Where("GENDER", CmpOp::kEq, "F")
            .GroupByAgg({}, {{table::AggKind::kAvg, "SBP", "avg_sbp"}})
            .ExecuteScalar());
    return avg.AsDouble();
  };
  return db.RunNaive(query, reps, 77).value();
}

std::vector<double> RunBundleQuery(const MonteCarloDb& db, size_t reps) {
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 77).value();
  auto pred =
      table::ColumnCompare(bundles.det_schema(), "GENDER", CmpOp::kEq, "F")
          .value();
  return bundles.FilterDet(pred).AggregateAvg("SBP").value();
}

void PrintEquivalence() {
  std::printf("=== E1: tuple-bundle execution (Section 2.1) ===\n");
  MonteCarloDb db = MakeDb(500);
  const size_t reps = 400;
  auto naive = RunNaiveQuery(db, reps);
  auto bundled = RunBundleQuery(db, reps);
  auto sn = Summarize(naive).value();
  auto sb = Summarize(bundled).value();
  std::printf("query: mean SBP of female patients, %zu MC repetitions\n",
              reps);
  std::printf("%16s %10s %10s\n", "", "naive", "bundled");
  std::printf("%16s %10.3f %10.3f\n", "mean", sn.mean, sb.mean);
  std::printf("%16s %10.3f %10.3f\n", "sd", std::sqrt(sn.variance),
              std::sqrt(sb.variance));
  std::printf("\nidentical distributions; the bundle plan touches each "
              "deterministic tuple once\ninstead of once per repetition — "
              "the benchmark below shows the speedup.\n\n");
}

void BM_NaivePerInstance(benchmark::State& state) {
  MonteCarloDb db = MakeDb(500);
  const size_t reps = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto samples = RunNaiveQuery(db, reps);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reps));
}
BENCHMARK(BM_NaivePerInstance)->Arg(16)->Arg(64)->Arg(256);

void BM_TupleBundles(benchmark::State& state) {
  MonteCarloDb db = MakeDb(500);
  const size_t reps = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto samples = RunBundleQuery(db, reps);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reps));
}
BENCHMARK(BM_TupleBundles)->Arg(16)->Arg(64)->Arg(256);

/// Full bundle pipeline (generation + plan) at columnar-kernel scale:
/// args = (tuples, reps). The 10000 x 1000 point is the configuration
/// perfbench's batch_analytics workload times.
void BM_BundleGenerateAndQuery(benchmark::State& state) {
  MonteCarloDb db = MakeDb(static_cast<size_t>(state.range(0)));
  const size_t reps = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto samples = RunBundleQuery(db, reps);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_BundleGenerateAndQuery)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 1000});

/// Same pipeline with the deterministic GENDER filter hoisted below VG
/// generation (pregen.h): half the tuples never draw their repetitions.
/// Bit-identical output to BM_BundleGenerateAndQuery's filter-after form.
void BM_BundleGenerateAndQueryPushdown(benchmark::State& state) {
  MonteCarloDb db = MakeDb(static_cast<size_t>(state.range(0)));
  const size_t reps = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto females =
        GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", reps, 77,
                             {{"GENDER", CmpOp::kEq, Value("F")}})
            .value();
    auto samples = females.AggregateAvg("SBP").value();
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_BundleGenerateAndQueryPushdown)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 1000});

/// Query-plan kernels only (FilterDet + stochastic filter + aggregate) over
/// a pre-generated bundle table: isolates the AoS-vs-SoA executor cost from
/// VG sampling.
void BM_BundleQueryExec(benchmark::State& state) {
  MonteCarloDb db = MakeDb(static_cast<size_t>(state.range(0)));
  const size_t reps = static_cast<size_t>(state.range(1));
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 77).value();
  auto pred =
      table::ColumnCompare(bundles.det_schema(), "GENDER", CmpOp::kEq, "F")
          .value();
  for (auto _ : state) {
    auto females = bundles.FilterDet(pred);
    auto high = females.FilterStoch("SBP", CmpOp::kGt, 120.0).value();
    auto avg = high.AggregateAvg("SBP").value();
    auto sum = females.AggregateSum("SBP").value();
    benchmark::DoNotOptimize(avg);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_BundleQueryExec)
    ->Unit(benchmark::kMillisecond)
    ->Args({10000, 1000});

/// One bundle row's draws: a fresh BatchRng (as NormalVg::GenerateScalarN
/// seeds one per row) filling `n` standard normals. items/s is draws per
/// second; run it under MDE_SIMD=scalar|avx2|avx512 to compare the
/// per-draw cost of the dispatch tiers.
void BM_FillNormal(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> row(n);
  Rng seeder(0xf111);
  for (auto _ : state) {
    BatchRng batch(seeder);
    batch.FillNormal(row.data(), n);
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FillNormal)->Arg(1000);

}  // namespace

MDE_BENCHMARK_MAIN(PrintEquivalence)
