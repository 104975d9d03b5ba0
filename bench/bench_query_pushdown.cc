/// Extension — Section 2.3 grounds simulation-run optimization in query
/// optimization. This bench runs the query-side half of the analogy: a
/// filter-above-join plan executed naively vs after selection pushdown,
/// reporting intermediate-row work and wall time.

#include <algorithm>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "table/plan.h"
#include "table/vec_ops.h"
#include "util/check.h"

namespace {

using namespace mde::table;  // NOLINT

struct Dataset {
  Table orders;
  Table customers;
};

Dataset MakeData(size_t num_orders, size_t num_customers) {
  Dataset d{Table{Schema({{"oid", DataType::kInt64},
                          {"cid", DataType::kInt64},
                          {"amount", DataType::kDouble}})},
            Table{Schema({{"cid", DataType::kInt64},
                          {"region", DataType::kString}})}};
  for (size_t o = 0; o < num_orders; ++o) {
    d.orders.Append({Value(static_cast<int64_t>(o)),
                     Value(static_cast<int64_t>(o % num_customers)),
                     Value(10.0 + static_cast<double>(o % 13))});
  }
  for (size_t c = 0; c < num_customers; ++c) {
    d.customers.Append({Value(static_cast<int64_t>(c)),
                        Value(c % 5 == 0 ? "EAST" : "WEST")});
  }
  return d;
}

PlanPtr MakeNaivePlan(const Dataset& d) {
  return PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&d.orders, "orders"),
                     PlanNode::Scan(&d.customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(20.0)}});
}

/// The plan a careful human writes by hand: both filters already sitting
/// on their scans. The cost-based optimizer (BM_CostBasedPlan) is expected
/// to land within a whisker of this from the naive spelling.
PlanPtr MakeHandOptimizedPlan(const Dataset& d) {
  return PlanNode::Join(
      PlanNode::Filter(PlanNode::Scan(&d.orders, "orders"),
                       {{"amount", CmpOp::kGt, Value(20.0)}}),
      PlanNode::Filter(PlanNode::Scan(&d.customers, "customers"),
                       {{"region", CmpOp::kEq, Value("EAST")}}),
      {"cid"}, {"cid"});
}

void PrintComparison() {
  std::printf("=== extension: cost-based optimization (query side of Sec "
              "2.3) ===\n");
  static Dataset d = MakeData(200000, 5000);
  PlanPtr naive = MakeNaivePlan(d);
  PlanPtr optimized = OptimizePlan(naive).value();
  std::printf("naive plan:\n%s\ncost-based plan:\n%s\n",
              ExplainPlan(naive).c_str(), ExplainPlan(optimized).c_str());
  ExecutionStats ns, os;
  auto a = ExecutePlan(naive, &ns).value();
  auto b = ExecutePlan(optimized, &os).value();
  std::printf("result rows: %zu (both)\n", a.num_rows());
  MDE_CHECK_EQ(a.num_rows(), b.num_rows());
  std::printf("intermediate rows: naive %zu vs cost-based %zu (%.1fx less "
              "work)\n\n",
              ns.intermediate_rows, os.intermediate_rows,
              static_cast<double>(ns.intermediate_rows) /
                  static_cast<double>(os.intermediate_rows));
  // Warm profiled runs: the catalog now holds this plan's actuals, so
  // EXPLAIN ANALYZE shows est == rows per node (the feedback loop). One run's
  // timings are a point draw (a cold second run's join self time ranged
  // 159-262 us), so print the run whose plan time is the median of kRuns.
  constexpr size_t kRuns = 21;
  std::vector<ExecutionStats> runs(kRuns);
  for (ExecutionStats& run : runs) ExecutePlan(optimized, &run).value();
  std::sort(runs.begin(), runs.end(),
            [](const ExecutionStats& x, const ExecutionStats& y) {
              return x.nodes[0].wall_ns < y.nodes[0].wall_ns;
            });
  std::printf("EXPLAIN ANALYZE (median plan time of %zu warm runs, "
              "estimates fed back):\n%s\n",
              kRuns, ExplainAnalyze(optimized, runs[kRuns / 2]).c_str());
}

void BM_NaivePlan(benchmark::State& state) {
  static Dataset d = MakeData(200000, 5000);
  PlanPtr plan = MakeNaivePlan(d);
  for (auto _ : state) {
    auto r = ExecutePlan(plan, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NaivePlan);

void BM_OptimizedPlan(benchmark::State& state) {
  static Dataset d = MakeData(200000, 5000);
  PlanPtr plan = MakeHandOptimizedPlan(d);
  for (auto _ : state) {
    auto r = ExecutePlan(plan, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OptimizedPlan);

/// End-to-end cost-based path: optimize the naive spelling every
/// iteration, then execute. The acceptance bar is within 15% of the
/// hand-optimized plan above — i.e. the optimizer finds the pushed shape
/// and its own runtime is noise at this data size.
void BM_CostBasedPlan(benchmark::State& state) {
  static Dataset d = MakeData(200000, 5000);
  PlanPtr naive = MakeNaivePlan(d);
  for (auto _ : state) {
    auto plan = OptimizePlan(naive);
    auto r = ExecutePlan(plan.value(), nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CostBasedPlan);

/// The hash join kernel alone: 50000 probe rows against 1000 build rows
/// whose int64 keys are dense and unique (Arg 0: 0, 5, 10, ..., like the
/// EAST customers above, so the branch-free key - min probe is used), dense
/// with each key four times (Arg 1), or sparse (Arg 2: the unique keys times
/// 2^40); Args 1 and 2 go through the hash index. Items are probe rows.
std::shared_ptr<const ColumnarTable> KeyTable(size_t n, int64_t mult,
                                              size_t distinct) {
  ColumnarTableBuilder b{Schema({{"k", DataType::kInt64}})};
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.column(0).AppendInt64(static_cast<int64_t>(i % distinct) * mult);
  }
  return b.Finish().value();
}

void BM_HashJoin(benchmark::State& state) {
  constexpr size_t kProbe = 50000;
  constexpr size_t kBuild = 1000;
  const int64_t scale = state.range(0) == 2 ? int64_t{1} << 40 : 1;
  const size_t distinct = state.range(0) == 1 ? kBuild / 4 : kBuild;
  ColumnarTableBuilder lb{Schema({{"k", DataType::kInt64}})};
  lb.Reserve(kProbe);
  for (size_t i = 0; i < kProbe; ++i) {
    lb.column(0).AppendInt64(static_cast<int64_t>(i * 7919 % 5000) * scale);
  }
  const ColumnarBatch left{lb.Finish().value(), {}, true};
  const ColumnarBatch right{KeyTable(kBuild, 5 * scale, distinct), {}, true};
  static const char* kLabels[] = {"dense unique", "dense duplicate",
                                  "sparse"};
  state.SetLabel(kLabels[state.range(0)]);
  for (auto _ : state) {
    auto r = VecHashJoin(left, right, {"k"}, {"k"}, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kProbe));
}
BENCHMARK(BM_HashJoin)->Arg(0)->Arg(1)->Arg(2);

void BM_OptimizeItself(benchmark::State& state) {
  static Dataset d = MakeData(1000, 100);
  PlanPtr plan = MakeNaivePlan(d);
  for (auto _ : state) {
    auto r = OptimizePlan(plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OptimizeItself);

}  // namespace

MDE_BENCHMARK_MAIN(PrintComparison)
