/// Microbenchmarks for the table operator suite: the retained
/// row-at-a-time reference operators vs the vectorized columnar kernels
/// (vec_ops.h), at several thread counts. perfbench/README.md records how
/// these kernel-level rows map onto the engine's benchmark.

#include <cstdio>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "table/columnar.h"
#include "table/ops.h"
#include "table/table.h"
#include "table/vec_ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mde;  // NOLINT
using table::AggKind;
using table::AggSpec;
using table::CmpOp;
using table::ColumnarBatch;
using table::ColumnarTable;
using table::ColumnarTableBuilder;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

/// A sales-fact-style table: int64 key with limited cardinality, doubles,
/// a low-cardinality dictionary column, and ~5% nulls in the measure.
std::shared_ptr<const ColumnarTable> MakeFacts(size_t n) {
  const char* kRegions[] = {"north", "south", "east", "west", "central"};
  Rng rng(42);
  ColumnarTableBuilder b{Schema({{"id", DataType::kInt64},
                                 {"customer", DataType::kInt64},
                                 {"amount", DataType::kDouble},
                                 {"region", DataType::kString}})};
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.column(0).AppendInt64(static_cast<int64_t>(i));
    b.column(1).AppendInt64(static_cast<int64_t>(rng.NextBounded(n / 8 + 1)));
    if (rng.NextBounded(20) == 0) {
      b.column(2).AppendNull();
    } else {
      b.column(2).AppendDouble(rng.NextDouble() * 1000.0);
    }
    b.column(3).AppendString(kRegions[rng.NextBounded(5)]);
  }
  auto cols = b.Finish();
  MDE_CHECK(cols.ok());
  return std::move(cols).value();
}

std::shared_ptr<const ColumnarTable> MakeCustomers(size_t n) {
  Rng rng(43);
  ColumnarTableBuilder b{
      Schema({{"cid", DataType::kInt64}, {"score", DataType::kDouble}})};
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.column(0).AppendInt64(static_cast<int64_t>(i));
    b.column(1).AppendDouble(rng.NextDouble());
  }
  auto cols = b.Finish();
  MDE_CHECK(cols.ok());
  return std::move(cols).value();
}

constexpr size_t kRows = 200000;

/// state.range(0) selects the engine for every benchmark here:
/// -1 = row-at-a-time reference; 0 = vectorized serial; k>0 = vectorized
/// over a k-thread pool.
void BM_Filter(benchmark::State& state) {
  const int64_t mode = state.range(0);
  auto cols = MakeFacts(kRows);
  Table t = Table::FromColumnar(cols);
  t.rows();  // pre-materialize so the row path measures filtering only
  std::unique_ptr<ThreadPool> pool;
  if (mode > 0) pool = std::make_unique<ThreadPool>(mode);
  const Value cutoff{500.0};
  if (mode < 0) {
    auto pred =
        table::ColumnCompare(t.schema(), "amount", CmpOp::kGt, cutoff);
    MDE_CHECK(pred.ok());
    for (auto _ : state) {
      Table out = table::Filter(t, pred.value());
      benchmark::DoNotOptimize(out);
    }
  } else {
    for (auto _ : state) {
      auto sel = table::VecFilter(*cols, nullptr, "amount", CmpOp::kGt,
                                  cutoff, pool.get());
      MDE_CHECK(sel.ok());
      auto out = table::VecCompact(*cols, sel.value(), pool.get());
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_Filter)->Arg(-1)->Arg(0)->Arg(2)->Arg(4);

void BM_HashJoin(benchmark::State& state) {
  const int64_t mode = state.range(0);
  auto facts = MakeFacts(kRows / 4);
  auto customers = MakeCustomers(kRows / 32);
  std::unique_ptr<ThreadPool> pool;
  if (mode > 0) pool = std::make_unique<ThreadPool>(mode);
  if (mode < 0) {
    Table l = Table::FromColumnar(facts);
    Table r = Table::FromColumnar(customers);
    l.rows();
    r.rows();
    for (auto _ : state) {
      auto out = table::HashJoin(l, r, {"customer"}, {"cid"});
      MDE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  } else {
    for (auto _ : state) {
      auto out = table::VecHashJoin(ColumnarBatch{facts, {}, true},
                                    ColumnarBatch{customers, {}, true},
                                    {"customer"}, {"cid"}, pool.get());
      MDE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kRows / 4));
}
BENCHMARK(BM_HashJoin)->Arg(-1)->Arg(0)->Arg(2)->Arg(4);

void BM_GroupBy(benchmark::State& state) {
  const int64_t mode = state.range(0);
  auto cols = MakeFacts(kRows);
  const std::vector<std::string> keys = {"region"};
  const std::vector<AggSpec> aggs = {{AggKind::kSum, "amount", "total"},
                                     {AggKind::kAvg, "amount", "avg"},
                                     {AggKind::kCount, "", "n"}};
  std::unique_ptr<ThreadPool> pool;
  if (mode > 0) pool = std::make_unique<ThreadPool>(mode);
  if (mode < 0) {
    Table t = Table::FromColumnar(cols);
    t.rows();
    for (auto _ : state) {
      auto out = table::GroupBy(t, keys, aggs);
      MDE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  } else {
    for (auto _ : state) {
      auto out = table::VecGroupBy(ColumnarBatch{cols, {}, true}, keys, aggs,
                                   pool.get());
      MDE_CHECK(out.ok());
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kRows));
}
BENCHMARK(BM_GroupBy)->Arg(-1)->Arg(0)->Arg(2)->Arg(4);

void Preamble() {
  std::printf(
      "=== table operator microbenchmarks ===\n"
      "Arg(-1): row-at-a-time reference operators\n"
      "Arg(0):  vectorized kernels, serial\n"
      "Arg(k):  vectorized kernels over a k-thread pool\n\n");
}

}  // namespace

MDE_BENCHMARK_MAIN(Preamble)
