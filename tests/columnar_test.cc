#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "row_oracle.h"
#include "table/catalog.h"
#include "table/columnar.h"
#include "table/key_index.h"
#include "table/ops.h"
#include "table/plan.h"
#include "table/query.h"
#include "table/table.h"
#include "table/value.h"
#include "table/vec_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mde::table {
namespace {

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

/// Cell-level equality via Value's strict variant operator== (null equals
/// null), except that a double NaN matches a double NaN, so this is an
/// equivalence.
bool SameCell(const Value& a, const Value& b) {
  if (a == b) return true;
  return a.type() == DataType::kDouble && b.type() == DataType::kDouble &&
         std::isnan(a.AsDouble()) && std::isnan(b.AsDouble());
}

void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  ASSERT_TRUE(a.schema() == b.schema())
      << what << ": " << a.schema().ToString() << " vs "
      << b.schema().ToString();
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    const Row& ra = a.row(i);
    const Row& rb = b.row(i);
    for (size_t j = 0; j < ra.size(); ++j) {
      ASSERT_TRUE(SameCell(ra[j], rb[j]))
          << what << ": row " << i << " col " << j << ": " << ra[j].ToString()
          << " vs " << rb[j].ToString();
    }
  }
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// Bit-exact equality of the underlying blocks — the determinism contract:
/// results must not merely be numerically close across pool sizes, they
/// must be the same bits.
void ExpectColumnarBitIdentical(const ColumnarTable& a,
                                const ColumnarTable& b,
                                const std::string& what) {
  ASSERT_TRUE(a.schema() == b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.col(c);
    const Column& cb = b.col(c);
    ASSERT_EQ(ca.type, cb.type) << what;
    ASSERT_EQ(ca.i64, cb.i64) << what << " col " << c;
    ASSERT_EQ(ca.f64.size(), cb.f64.size()) << what;
    for (size_t i = 0; i < ca.f64.size(); ++i) {
      ASSERT_EQ(Bits(ca.f64[i]), Bits(cb.f64[i]))
          << what << " col " << c << " row " << i;
    }
    ASSERT_EQ(ca.b8, cb.b8) << what << " col " << c;
    ASSERT_EQ(ca.codes, cb.codes) << what << " col " << c;
    if (ca.dict != nullptr || cb.dict != nullptr) {
      ASSERT_TRUE(ca.dict != nullptr && cb.dict != nullptr) << what;
      ASSERT_EQ(*ca.dict, *cb.dict) << what << " col " << c;
    }
    ASSERT_EQ(ca.valid, cb.valid) << what << " col " << c;
  }
}

// ---------------------------------------------------------------------------
// Random data generation for the differential tests. Doubles stay on the
// 0.25 lattice with small magnitude, so chunked sums are exact in IEEE
// arithmetic and row-order vs chunk-order accumulation cannot diverge.
// int64 values occasionally sit at the 2^53 double-precision edge to
// exercise Value's coerce-through-double comparison semantics.
// ---------------------------------------------------------------------------

const char* kStrings[] = {"a", "b", "c", "apple", "zed", ""};

Value RandomValueOfType(Rng& rng, DataType type, bool allow_null) {
  if (allow_null && rng.NextBounded(12) == 0) return Value();
  switch (type) {
    case DataType::kInt64: {
      if (rng.NextBounded(20) == 0) {
        const int64_t edge = int64_t{1} << 53;
        return Value(edge + static_cast<int64_t>(rng.NextBounded(3)) - 1);
      }
      return Value(static_cast<int64_t>(rng.NextBounded(13)) - 6);
    }
    case DataType::kDouble:
      return Value((static_cast<double>(rng.NextBounded(81)) - 40.0) * 0.25);
    case DataType::kBool:
      return Value(rng.NextBounded(2) == 1);
    case DataType::kString:
      return Value(kStrings[rng.NextBounded(6)]);
    case DataType::kNull:
      return Value();
  }
  return Value();
}

DataType RandomType(Rng& rng) {
  constexpr DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                                 DataType::kBool, DataType::kString};
  return kTypes[rng.NextBounded(4)];
}

Table RandomTable(Rng& rng, const std::string& prefix, size_t max_rows) {
  const size_t ncols = 1 + rng.NextBounded(4);
  std::vector<ColumnSpec> specs;
  for (size_t c = 0; c < ncols; ++c) {
    specs.push_back({prefix + std::to_string(c), RandomType(rng)});
  }
  Table t{Schema(specs)};
  const size_t rows = rng.NextBounded(max_rows + 1);
  for (size_t i = 0; i < rows; ++i) {
    Row r;
    for (size_t c = 0; c < ncols; ++c) {
      r.push_back(RandomValueOfType(rng, specs[c].type, /*allow_null=*/true));
    }
    t.Append(std::move(r));
  }
  return t;
}

std::string RandomColumn(Rng& rng, const Table& t, bool sometimes_bogus) {
  if (sometimes_bogus && rng.NextBounded(15) == 0) return "no_such_column";
  return t.schema().column(rng.NextBounded(t.schema().num_columns())).name;
}

CmpOp RandomOp(Rng& rng) {
  constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                            CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  return kOps[rng.NextBounded(6)];
}

// ---------------------------------------------------------------------------
// Storage-layer unit tests
// ---------------------------------------------------------------------------

TEST(ColumnBuilderTest, LateNullBackfillsBitmap) {
  ColumnBuilder b(DataType::kInt64);
  for (int i = 0; i < 100; ++i) b.AppendInt64(i);
  b.AppendNull();
  b.AppendInt64(100);
  auto col = b.Finish();
  ASSERT_EQ(col->size, 102u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(col->IsValid(i));
    EXPECT_TRUE(col->ValueAt(i) == Value(int64_t{i}));
  }
  EXPECT_FALSE(col->IsValid(100));
  EXPECT_TRUE(col->ValueAt(100).is_null());
  EXPECT_TRUE(col->IsValid(101));
}

TEST(ColumnBuilderTest, NoNullsMeansEmptyBitmap) {
  ColumnBuilder b(DataType::kDouble);
  for (int i = 0; i < 200; ++i) b.AppendDouble(i * 0.5);
  auto col = b.Finish();
  EXPECT_TRUE(col->valid.empty());
  EXPECT_TRUE(col->IsValid(199));
}

TEST(ColumnBuilderTest, StringsAreInternedInFirstAppearanceOrder) {
  ColumnBuilder b(DataType::kString);
  b.AppendString("x");
  b.AppendString("y");
  b.AppendString("x");
  b.AppendString("z");
  b.AppendString("y");
  auto col = b.Finish();
  ASSERT_EQ(col->dict->size(), 3u);
  EXPECT_EQ((*col->dict)[0], "x");
  EXPECT_EQ((*col->dict)[1], "y");
  EXPECT_EQ((*col->dict)[2], "z");
  EXPECT_TRUE(std::equal(col->codes.begin(), col->codes.end(),
                         std::vector<uint32_t>{0, 1, 0, 2, 1}.begin()));
  EXPECT_EQ(col->codes.size(), 5u);
}

TEST(ColumnarTableTest, RoundTripsThroughTable) {
  Rng rng(7);
  Table t = RandomTable(rng, "c", 300);
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  Table back = Table::FromColumnar(cols.value());
  ExpectTablesIdentical(t, back, "round trip");
}

TEST(ColumnarTableTest, ToColumnarCachesOnTheTable) {
  Rng rng(8);
  Table t = RandomTable(rng, "c", 50);
  auto first = t.ToColumnar();
  auto second = t.ToColumnar();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
}

TEST(ColumnarTableTest, MutationDetachesColumnarRepresentation) {
  Table t{Schema({{"a", DataType::kInt64}})};
  t.Append({Value(int64_t{1})});
  ASSERT_TRUE(t.ToColumnar().ok());
  EXPECT_NE(t.columnar(), nullptr);
  t.Append({Value(int64_t{2})});
  EXPECT_EQ(t.columnar(), nullptr);
  EXPECT_EQ(t.num_rows(), 2u);
}

// Every cell is null or of its column's declared type: the constructor,
// Append and Set abort on a mixed-type cell, so every Table converts to
// columnar form.
TEST(ColumnarTableDeathTest, MixedTypeCellAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Schema schema({{"a", DataType::kInt64}, {"s", DataType::kString}});
  const char* kMsg = "cell type disagrees with declared column type";
  // A runtime double in a declared-int64 column.
  EXPECT_DEATH(Table(schema, {{Value(2.5), Value("x")}}), kMsg);
  Table t{schema};
  EXPECT_DEATH(t.Append({Value(int64_t{1}), Value(int64_t{2})}), kMsg);
  t.Append({Value(int64_t{1}), Value("x")});
  EXPECT_DEATH(t.Set(0, 1, Value(true)), kMsg);
  // A null cell is accepted in any column.
  Table n(schema, {{Value(), Value()}});
  n.Append({Value(), Value("y")});
  n.Set(1, 0, Value());
  auto cols = n.ToColumnar();
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value()->num_rows(), 2u);
  EXPECT_FALSE(cols.value()->col(0).IsValid(0));
  EXPECT_FALSE(cols.value()->col(0).IsValid(1));
}

TEST(ColumnarTableTest, LazyRowMaterialization) {
  ColumnarTableBuilder b{Schema({{"a", DataType::kInt64}})};
  for (int i = 0; i < 10; ++i) b.column(0).AppendInt64(i);
  auto cols = b.Finish();
  ASSERT_TRUE(cols.ok());
  Table t = Table::FromColumnar(cols.value());
  EXPECT_EQ(t.num_rows(), 10u);
  auto v = t.At(3, "a");  // cell access without materializing
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v.value() == Value(int64_t{3}));
  EXPECT_EQ(t.rows().size(), 10u);  // materializes
  EXPECT_TRUE(t.row(9)[0] == Value(int64_t{9}));
}

// ---------------------------------------------------------------------------
// Randomized differential tests: the vectorized kernels must agree with the
// row-at-a-time oracle (row_oracle.h) row for row, cell for cell — including
// null handling, cross-type predicates, and the int64-through-double
// comparison edge at 2^53.
// ---------------------------------------------------------------------------

Value RandomLiteral(Rng& rng) {
  if (rng.NextBounded(10) == 0) return Value();  // null literal
  return RandomValueOfType(rng, RandomType(rng), /*allow_null=*/false);
}

void RunFilterDifferential(Rng& rng, ThreadPool* pool) {
  Table t = RandomTable(rng, "c", 120);
  const std::string col = RandomColumn(rng, t, /*sometimes_bogus=*/true);
  const CmpOp op = RandomOp(rng);
  const Value lit = RandomLiteral(rng);

  auto pred = ColumnCompare(t.schema(), col, op, lit);
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto sel = VecFilter(*cols.value(), nullptr, col, op, lit, pool);
  ASSERT_EQ(pred.ok(), sel.ok());
  if (!pred.ok()) {
    EXPECT_EQ(pred.status().code(), sel.status().code());
    return;
  }
  Table ref = oracle::Filter(t, pred.value());
  Table vec = BatchToTable(
      ColumnarBatch{cols.value(), std::move(sel).value(), false}, pool);
  ExpectTablesIdentical(ref, vec, "filter " + col);
}

void RunJoinDifferential(Rng& rng, ThreadPool* pool) {
  Table l = RandomTable(rng, "l", 80);
  Table r = RandomTable(rng, "r", 80);
  const size_t nkeys = 1 + rng.NextBounded(2);
  std::vector<std::string> lk, rk;
  for (size_t i = 0; i < nkeys; ++i) {
    lk.push_back(RandomColumn(rng, l, /*sometimes_bogus=*/false));
    rk.push_back(RandomColumn(rng, r, /*sometimes_bogus=*/false));
  }
  auto ref = oracle::HashJoin(l, r, lk, rk);
  auto lc = l.ToColumnar();
  auto rc = r.ToColumnar();
  ASSERT_TRUE(lc.ok() && rc.ok());
  auto vec = VecHashJoin(ColumnarBatch{lc.value(), {}, true},
                         ColumnarBatch{rc.value(), {}, true}, lk, rk, pool);
  ASSERT_EQ(ref.ok(), vec.ok());
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().code(), vec.status().code());
    return;
  }
  ExpectTablesIdentical(ref.value(), Table::FromColumnar(vec.value()),
                        "join");
}

void RunGroupByDifferential(Rng& rng, ThreadPool* pool) {
  Table t = RandomTable(rng, "c", 120);
  std::vector<std::string> keys;
  const size_t nkeys = rng.NextBounded(3);
  for (size_t i = 0; i < nkeys; ++i) {
    std::string k = RandomColumn(rng, t, /*sometimes_bogus=*/false);
    // Duplicate keys would put the same name twice in the output schema.
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(std::move(k));
    }
  }
  constexpr AggKind kKinds[] = {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                                AggKind::kMin, AggKind::kMax};
  std::vector<AggSpec> aggs;
  const size_t naggs = 1 + rng.NextBounded(2);
  for (size_t i = 0; i < naggs; ++i) {
    aggs.push_back({kKinds[rng.NextBounded(5)],
                    RandomColumn(rng, t, /*sometimes_bogus=*/false),
                    "agg" + std::to_string(i)});
  }
  auto ref = oracle::GroupBy(t, keys, aggs);
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto vec = VecGroupBy(ColumnarBatch{cols.value(), {}, true}, keys, aggs,
                        pool);
  ASSERT_EQ(ref.ok(), vec.ok());
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().code(), vec.status().code());
    return;
  }
  ExpectTablesIdentical(ref.value(), Table::FromColumnar(vec.value()),
                        "group-by");
}

void RunOrderByDifferential(Rng& rng, ThreadPool* pool) {
  Table t = RandomTable(rng, "c", 120);
  const size_t ncols = 1 + rng.NextBounded(2);
  std::vector<std::string> by;
  std::vector<bool> desc;
  for (size_t i = 0; i < ncols; ++i) {
    by.push_back(RandomColumn(rng, t, /*sometimes_bogus=*/false));
    desc.push_back(rng.NextBounded(2) == 1);
  }
  auto ref = oracle::OrderBy(t, by, desc);
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto sel = VecOrderBy(ColumnarBatch{cols.value(), {}, true}, by, desc);
  ASSERT_EQ(ref.ok(), sel.ok());
  if (!ref.ok()) return;
  Table vec = BatchToTable(
      ColumnarBatch{cols.value(), std::move(sel).value(), false}, pool);
  ExpectTablesIdentical(ref.value(), vec, "order-by");
}

void RunDistinctDifferential(Rng& rng, ThreadPool* pool) {
  Table t = RandomTable(rng, "c", 120);
  Table ref = oracle::Distinct(t);
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  SelVector sel = VecDistinct(ColumnarBatch{cols.value(), {}, true});
  Table vec =
      BatchToTable(ColumnarBatch{cols.value(), std::move(sel), false}, pool);
  ExpectTablesIdentical(ref, vec, "distinct");
}

TEST(ColumnarDifferentialTest, TwoHundredRandomOperatorRuns) {
  Rng rng(20260806);
  ThreadPool pool(3);
  for (int iter = 0; iter < 200; ++iter) {
    ThreadPool* p = iter % 2 == 0 ? nullptr : &pool;
    switch (iter % 5) {
      case 0:
        RunFilterDifferential(rng, p);
        break;
      case 1:
        RunJoinDifferential(rng, p);
        break;
      case 2:
        RunGroupByDifferential(rng, p);
        break;
      case 3:
        RunOrderByDifferential(rng, p);
        break;
      case 4:
        RunDistinctDifferential(rng, p);
        break;
    }
    if (HasFatalFailure()) {
      ADD_FAILURE() << "failing iteration: " << iter;
      return;
    }
  }
}

TEST(ColumnarDifferentialTest, QueryChainMatchesRowComposition) {
  Rng rng(99);
  for (int iter = 0; iter < 60; ++iter) {
    Table t = RandomTable(rng, "c", 100);
    Table u = RandomTable(rng, "c", 60);  // join partner, same name space
    const std::string fcol = RandomColumn(rng, t, false);
    const CmpOp op = RandomOp(rng);
    const Value lit = RandomLiteral(rng);
    const std::string lk = RandomColumn(rng, t, false);
    const std::string rk = RandomColumn(rng, u, false);

    auto q = Query(t)
                 .Where(fcol, op, lit)
                 .Join(u, {lk}, {rk})
                 .Limit(25)
                 .Execute();

    auto pred = ColumnCompare(t.schema(), fcol, op, lit);
    ASSERT_TRUE(pred.ok());
    auto joined =
        oracle::HashJoin(oracle::Filter(t, pred.value()), u, {lk}, {rk});
    ASSERT_EQ(q.ok(), joined.ok());
    if (!q.ok()) continue;
    Table ref = oracle::Limit(joined.value(), 25);
    ExpectTablesIdentical(ref, q.value(), "query chain");
  }
}

TEST(ColumnarDifferentialTest, PlanExecutorMatchesRowOperators) {
  Rng rng(314);
  for (int iter = 0; iter < 40; ++iter) {
    Table l = RandomTable(rng, "l", 90);
    Table r = RandomTable(rng, "r", 60);
    const std::string lk = RandomColumn(rng, l, false);
    const std::string rk = RandomColumn(rng, r, false);
    const std::string fc = RandomColumn(rng, l, false);
    const CmpOp op = RandomOp(rng);
    const Value lit = RandomLiteral(rng);

    auto plan = PlanNode::Filter(
        PlanNode::Join(PlanNode::Scan(&l, "l"), PlanNode::Scan(&r, "r"),
                       {lk}, {rk}),
        {{fc, op, lit}});
    ExecutionStats stats;
    auto got = ExecutePlan(plan, &stats);

    auto joined = oracle::HashJoin(l, r, {lk}, {rk});
    ASSERT_EQ(got.ok(), joined.ok());
    if (!got.ok()) continue;
    auto pred = ColumnCompare(joined.value().schema(), fc, op, lit);
    ASSERT_TRUE(pred.ok());
    Table ref = oracle::Filter(joined.value(), pred.value());
    ExpectTablesIdentical(ref, got.value(), "plan execution");
    EXPECT_EQ(stats.rows_scanned, l.num_rows() + r.num_rows());
  }
}

// ---------------------------------------------------------------------------
// Determinism: bit-identical results for pool sizes {serial, 2, 8}. These
// use arbitrary (non-lattice) doubles and enough rows for many chunks, so
// any thread-count-dependent accumulation order would show up as a bit
// difference.
// ---------------------------------------------------------------------------

std::shared_ptr<const ColumnarTable> BigMixedTable(size_t n) {
  Rng rng(5150);
  ColumnarTableBuilder b{Schema({{"k", DataType::kInt64},
                                 {"x", DataType::kDouble},
                                 {"s", DataType::kString},
                                 {"f", DataType::kBool}})};
  b.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    b.column(0).AppendInt64(static_cast<int64_t>(rng.NextBounded(100)));
    if (rng.NextBounded(20) == 0) {
      b.column(1).AppendNull();
    } else {
      b.column(1).AppendDouble((rng.NextDouble() - 0.5) * 1e6);
    }
    b.column(2).AppendString(kStrings[rng.NextBounded(6)]);
    b.column(3).AppendBool(rng.NextBounded(2) == 1);
  }
  auto cols = b.Finish();
  EXPECT_TRUE(cols.ok());
  return std::move(cols).value();
}

TEST(VecDeterminismTest, KernelsBitIdenticalAcrossPoolSizes) {
  const auto cols = BigMixedTable(50000);
  const ColumnarBatch batch{cols, {}, true};
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::vector<ThreadPool*> pools = {nullptr, &pool2, &pool8};

  // Filter: selection vectors must match element for element.
  std::vector<SelVector> sels;
  for (ThreadPool* p : pools) {
    auto sel =
        VecFilter(*cols, nullptr, "x", CmpOp::kGt, Value(0.0), p);
    ASSERT_TRUE(sel.ok());
    sels.push_back(std::move(sel).value());
  }
  EXPECT_EQ(sels[0], sels[1]);
  EXPECT_EQ(sels[0], sels[2]);

  // Compact: gathered blocks (incl. validity bitmaps) must be identical.
  std::vector<std::shared_ptr<const ColumnarTable>> compacts;
  for (ThreadPool* p : pools) compacts.push_back(VecCompact(*cols, sels[0], p));
  ExpectColumnarBitIdentical(*compacts[0], *compacts[1], "compact serial/2");
  ExpectColumnarBitIdentical(*compacts[0], *compacts[2], "compact serial/8");

  // GroupBy: chunk-order partial-sum combination must be thread-invariant.
  const std::vector<AggSpec> aggs = {{AggKind::kSum, "x", "sx"},
                                     {AggKind::kAvg, "x", "ax"},
                                     {AggKind::kMin, "x", "mn"},
                                     {AggKind::kMax, "x", "mx"},
                                     {AggKind::kCount, "", "n"}};
  std::vector<std::shared_ptr<const ColumnarTable>> groups;
  for (ThreadPool* p : pools) {
    auto g = VecGroupBy(batch, {"k", "s"}, aggs, p);
    ASSERT_TRUE(g.ok());
    groups.push_back(std::move(g).value());
  }
  ExpectColumnarBitIdentical(*groups[0], *groups[1], "group-by serial/2");
  ExpectColumnarBitIdentical(*groups[0], *groups[2], "group-by serial/8");

  // HashJoin (self-join on the key column).
  std::vector<std::shared_ptr<const ColumnarTable>> joins;
  const auto right = BigMixedTable(3000);
  for (ThreadPool* p : pools) {
    auto j = VecHashJoin(batch, ColumnarBatch{right, {}, true}, {"k"}, {"k"},
                         p);
    ASSERT_TRUE(j.ok());
    joins.push_back(std::move(j).value());
  }
  ExpectColumnarBitIdentical(*joins[0], *joins[1], "join serial/2");
  ExpectColumnarBitIdentical(*joins[0], *joins[2], "join serial/8");
}

TEST(VecDeterminismTest, NestedLoopJoinBitIdenticalAcrossPoolSizes) {
  const auto left = BigMixedTable(9000);
  const auto right = BigMixedTable(40);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  std::vector<std::shared_ptr<const ColumnarTable>> outs;
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    auto j = VecNestedLoopJoin(*left, "x", CmpOp::kLt, *right, "x", p);
    ASSERT_TRUE(j.ok());
    outs.push_back(std::move(j).value());
  }
  ExpectColumnarBitIdentical(*outs[0], *outs[1], "nlj serial/2");
  ExpectColumnarBitIdentical(*outs[0], *outs[2], "nlj serial/8");
}

// ---------------------------------------------------------------------------
// Targeted semantics tests
// ---------------------------------------------------------------------------

TEST(VecOpsTest, GroupByEmptyInputProducesNoGroups) {
  Table t{Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}})};
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto g = VecGroupBy(ColumnarBatch{cols.value(), {}, true}, {},
                      {{AggKind::kCount, "", "n"}}, nullptr);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->num_rows(), 0u);
}

TEST(VecOpsTest, AggregatesOverAllNullGroupMatchRowSemantics) {
  Table t{Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}})};
  t.Append({Value(int64_t{1}), Value()});
  t.Append({Value(int64_t{1}), Value()});
  const std::vector<AggSpec> aggs = {{AggKind::kSum, "x", "s"},
                                     {AggKind::kAvg, "x", "a"},
                                     {AggKind::kMin, "x", "mn"},
                                     {AggKind::kCount, "", "n"}};
  auto ref = oracle::GroupBy(t, {"k"}, aggs);
  ASSERT_TRUE(ref.ok());
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto vec =
      VecGroupBy(ColumnarBatch{cols.value(), {}, true}, {"k"}, aggs, nullptr);
  ASSERT_TRUE(vec.ok());
  ExpectTablesIdentical(ref.value(), Table::FromColumnar(vec.value()),
                        "null aggregates");
  // SUM over an empty set is 0.0, AVG/MIN are null, COUNT counts rows.
  const Table& out = ref.value();
  EXPECT_TRUE(out.row(0)[1] == Value(0.0));
  EXPECT_TRUE(out.row(0)[2].is_null());
  EXPECT_TRUE(out.row(0)[3].is_null());
  EXPECT_TRUE(out.row(0)[4] == Value(int64_t{2}));
}

TEST(VecOpsTest, NullKeysNeverJoin) {
  Table l{Schema({{"k", DataType::kInt64}})};
  l.Append({Value()});
  l.Append({Value(int64_t{1})});
  Table r{Schema({{"k", DataType::kInt64}})};
  r.Append({Value()});
  r.Append({Value(int64_t{1})});
  auto lc = l.ToColumnar();
  auto rc = r.ToColumnar();
  ASSERT_TRUE(lc.ok() && rc.ok());
  auto j = VecHashJoin(ColumnarBatch{lc.value(), {}, true},
                       ColumnarBatch{rc.value(), {}, true}, {"k"}, {"k"},
                       nullptr);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()->num_rows(), 1u);  // only the 1=1 match
}

TEST(VecOpsTest, MismatchedKeyTypesProduceEmptyJoin) {
  Table l{Schema({{"k", DataType::kInt64}})};
  l.Append({Value(int64_t{1})});
  Table r{Schema({{"k", DataType::kDouble}})};
  r.Append({Value(1.0)});
  auto ref = oracle::HashJoin(l, r, {"k"}, {"k"});
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().num_rows(), 0u);  // strict typing: 1 != 1.0 as keys
  auto lc = l.ToColumnar();
  auto rc = r.ToColumnar();
  auto j = VecHashJoin(ColumnarBatch{lc.value(), {}, true},
                       ColumnarBatch{rc.value(), {}, true}, {"k"}, {"k"},
                       nullptr);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()->num_rows(), 0u);
}

TEST(VecOpsTest, Int64FilterCoercesThroughDoubleAt2To53) {
  // 2^53 and 2^53+1 are the same double; the oracle compares via
  // AsDouble(), so the vectorized path must collapse them too.
  const int64_t edge = int64_t{1} << 53;
  Table t{Schema({{"v", DataType::kInt64}})};
  t.Append({Value(edge)});
  t.Append({Value(edge + 1)});
  auto pred = ColumnCompare(t.schema(), "v", CmpOp::kEq, Value(edge));
  ASSERT_TRUE(pred.ok());
  Table ref = oracle::Filter(t, pred.value());
  EXPECT_EQ(ref.num_rows(), 2u);  // both "equal" after coercion
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto sel =
      VecFilter(*cols.value(), nullptr, "v", CmpOp::kEq, Value(edge), nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel.value().size(), 2u);
}

TEST(VecOpsTest, CrossTypePredicateFollowsValueRanking)
{
  // String column vs numeric literal: Value ranks numerics below strings,
  // so s > 5 is true for every non-null string and s < 5 is false.
  Table t{Schema({{"s", DataType::kString}})};
  t.Append({Value("a")});
  t.Append({Value()});
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  auto gt = VecFilter(*cols.value(), nullptr, "s", CmpOp::kGt,
                      Value(int64_t{5}), nullptr);
  auto lt = VecFilter(*cols.value(), nullptr, "s", CmpOp::kLt,
                      Value(int64_t{5}), nullptr);
  ASSERT_TRUE(gt.ok() && lt.ok());
  EXPECT_EQ(gt.value().size(), 1u);  // "a" only; null never matches
  EXPECT_EQ(lt.value().size(), 0u);
}

// ---------------------------------------------------------------------------
// Hash join key edge cases. A single int64 key whose build keys are dense
// and unique indexes the build side by key - min and probes without
// branches; any other key goes through the hash index. Each case below
// lands on one of those paths and must match the oracle row for row (right
// matches in build order) at every pool size. The payload columns carry
// row numbers, so any reordering shows.
// ---------------------------------------------------------------------------

/// A table (k int64, <payload> int64) with payload = row number. A key of
/// nullopt is a null cell.
Table KeyedTable(const std::string& payload,
                 const std::vector<std::optional<int64_t>>& keys) {
  Table t{Schema({{"k", DataType::kInt64}, {payload, DataType::kInt64}})};
  for (size_t i = 0; i < keys.size(); ++i) {
    Row row = {Value(), Value(static_cast<int64_t>(i))};
    if (keys[i]) row[0] = Value(*keys[i]);
    t.Append(std::move(row));
  }
  return t;
}

/// Checks the join of all of `l`, and of every second row of `l` as a
/// selection vector (how a filtered scan reaches the join), against the
/// oracle.
void ExpectJoinMatchesOracle(const Table& l, const Table& r,
                             const std::string& what) {
  Table l2{l.schema()};
  SelVector sel2;
  for (size_t i = 0; i < l.num_rows(); i += 2) {
    l2.Append(l.row(i));
    sel2.push_back(static_cast<uint32_t>(i));
  }
  auto ref = oracle::HashJoin(l, r, {"k"}, {"k"});
  auto ref2 = oracle::HashJoin(l2, r, {"k"}, {"k"});
  ASSERT_TRUE(ref.ok() && ref2.ok());
  EXPECT_GT(ref2.value().num_rows(), 0u) << what;
  auto lc = l.ToColumnar();
  auto rc = r.ToColumnar();
  ASSERT_TRUE(lc.ok() && rc.ok());
  const ColumnarBatch right{rc.value(), {}, true};
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    auto j = VecHashJoin(ColumnarBatch{lc.value(), {}, true}, right, {"k"},
                         {"k"}, p);
    auto j2 = VecHashJoin(ColumnarBatch{lc.value(), sel2, false}, right,
                          {"k"}, {"k"}, p);
    ASSERT_TRUE(j.ok() && j2.ok());
    ExpectTablesIdentical(ref.value(), Table::FromColumnar(j.value()), what);
    ExpectTablesIdentical(ref2.value(), Table::FromColumnar(j2.value()),
                          what + " (selection)");
  }
}

/// Left keys: `n` draws from [lo, hi] (several probe chunks' worth).
std::vector<std::optional<int64_t>> RandomKeys(Rng& rng, size_t n, int64_t lo,
                                               int64_t hi) {
  std::vector<std::optional<int64_t>> keys(n);
  const uint64_t width = static_cast<uint64_t>(hi - lo) + 1;
  for (auto& k : keys) k = lo + static_cast<int64_t>(rng.NextBounded(width));
  return keys;
}

TEST(HashJoinKeysTest, DenseUniqueBuildKeys) {
  // 1000 unique keys 1000..1999 in shuffled order: the branch-free path.
  Rng rng(41);
  std::vector<std::optional<int64_t>> build;
  for (int64_t k = 1000; k < 2000; ++k) build.push_back(k);
  for (size_t i = build.size() - 1; i > 0; --i) {
    std::swap(build[i], build[rng.NextBounded(i + 1)]);
  }
  ExpectJoinMatchesOracle(KeyedTable("lx", RandomKeys(rng, 10000, 900, 2100)),
                          KeyedTable("ry", build), "dense unique");
}

TEST(HashJoinKeysTest, DuplicateBuildKeysKeepBuildOrder) {
  Rng rng(42);
  std::vector<std::optional<int64_t>> build;
  for (int64_t i = 0; i < 1200; ++i) build.push_back(500 + i % 97 * 3);
  const Table l = KeyedTable("lx", RandomKeys(rng, 9000, 480, 800));
  const Table r = KeyedTable("ry", build);
  ExpectJoinMatchesOracle(l, r, "dense duplicate");
  // The oracle's order, spelled out: each left row's matches in build order.
  auto j = VecHashJoin(ColumnarBatch{l.ToColumnar().value(), {}, true},
                       ColumnarBatch{r.ToColumnar().value(), {}, true}, {"k"},
                       {"k"}, nullptr);
  ASSERT_TRUE(j.ok());
  const Table out = Table::FromColumnar(j.value());
  for (size_t i = 1; i < out.num_rows(); ++i) {
    const int64_t lx0 = out.row(i - 1)[1].AsInt();
    const int64_t lx1 = out.row(i)[1].AsInt();
    if (lx0 == lx1) {
      EXPECT_LT(out.row(i - 1)[3].AsInt(), out.row(i)[3].AsInt()) << i;
    } else {
      EXPECT_LT(lx0, lx1) << i;
    }
  }
}

TEST(HashJoinKeysTest, Int64ExtremesTakeTheHashPath) {
  // max - min overflows int64: the span must be computed without overflow
  // and the build side indexed by hash.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::optional<int64_t>> build = {kMin, 0,  kMax, -1,
                                                     1,    kMin, 7};
  std::vector<std::optional<int64_t>> probe;
  for (int i = 0; i < 3000; ++i) {
    const int64_t keys[] = {kMin, kMin + 1, kMax, kMax - 1, 0, 1, -1, 7, 8};
    probe.push_back(keys[i % 9]);
  }
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "int64 extremes");
}

TEST(HashJoinKeysTest, ProbeKeysOutsideTheBuildRange) {
  Rng rng(43);
  std::vector<std::optional<int64_t>> build;
  for (int64_t k = 100; k < 200; ++k) build.push_back(k);
  std::vector<std::optional<int64_t>> probe = RandomKeys(rng, 9000, 50, 250);
  constexpr int64_t kFar[] = {std::numeric_limits<int64_t>::min(), -100, -1,
                              0, 99, 200, std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i < probe.size(); i += 5) probe[i] = kFar[i % 7];
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "probe outside build range (unique)");
  build.push_back(150);  // a duplicate: the hash path
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "probe outside build range (duplicate)");
}

TEST(HashJoinKeysTest, LeftNullsAgainstUniqueDenseBuild) {
  // A null cell stores 0 in the key block, and 0 is a build key: the
  // branch-free probe must mask nulls out, not just miss them.
  Rng rng(44);
  std::vector<std::optional<int64_t>> build;
  for (int64_t k = -300; k < 300; ++k) build.push_back(k);
  std::vector<std::optional<int64_t>> probe = RandomKeys(rng, 9000, -400, 400);
  for (size_t i = 0; i < probe.size(); i += 3) probe[i] = std::nullopt;
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "left nulls");
  build.push_back(std::nullopt);  // and a null build key, which never joins
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "left and right nulls");
}

TEST(HashJoinKeysTest, SparseKeys) {
  Rng rng(45);
  std::vector<std::optional<int64_t>> build;
  for (int64_t i = -500; i < 500; ++i) build.push_back(i * (int64_t{1} << 40));
  build.push_back(int64_t{3} << 40);  // one duplicate
  std::vector<std::optional<int64_t>> probe;
  for (const auto& k : RandomKeys(rng, 9000, -600, 600)) {
    probe.push_back(*k * (int64_t{1} << 40));
  }
  ExpectJoinMatchesOracle(KeyedTable("lx", probe), KeyedTable("ry", build),
                          "sparse");
}

TEST(HashJoinKeysTest, NanBuildKeysNeverJoin) {
  // NaN != NaN, so a NaN key never joins: 3000 NaN build rows beside 1000
  // ordinary ones, probed by NaN and ordinary keys.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table r{Schema({{"k", DataType::kDouble}, {"ry", DataType::kInt64}})};
  for (int64_t i = 0; i < 4000; ++i) {
    r.Append({Value(i % 4 == 0 ? 0.5 * static_cast<double>(i) : nan),
              Value(i)});
  }
  Rng rng(47);
  Table l{Schema({{"k", DataType::kDouble}, {"lx", DataType::kInt64}})};
  for (int64_t i = 0; i < 9000; ++i) {
    const double k =
        i % 5 == 0 ? nan : 0.5 * static_cast<double>(rng.NextBounded(4400));
    l.Append({Value(k), Value(i)});
  }
  ExpectJoinMatchesOracle(l, r, "NaN keys");
}

// ---------------------------------------------------------------------------
// Group-by and distinct through the key index: groups in first-appearance
// order at every pool size, across a growth of the index's table (more than
// 1024 groups), and with many keys that share a tag but are unequal (NaN).
// ---------------------------------------------------------------------------

/// Group-by (sum and count of x over k) and distinct (over k alone) of `t`
/// against the oracle at pool sizes {serial, 2, 8}.
void ExpectGroupByAndDistinctMatchOracle(const Table& t,
                                         const std::string& what) {
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  const ColumnarBatch batch{cols.value(), {}, true};
  const std::vector<AggSpec> aggs = {{AggKind::kSum, "x", "sx"},
                                     {AggKind::kCount, "", "n"}};
  auto ref = oracle::GroupBy(t, {"k"}, aggs);
  ASSERT_TRUE(ref.ok());
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    auto g = VecGroupBy(batch, {"k"}, aggs, p);
    ASSERT_TRUE(g.ok());
    ExpectTablesIdentical(ref.value(), Table::FromColumnar(g.value()),
                          what + " group-by");
  }

  auto keys_only = oracle::Project(t, {"k"});
  ASSERT_TRUE(keys_only.ok());
  auto kcols = keys_only.value().ToColumnar();
  ASSERT_TRUE(kcols.ok());
  SelVector sel = VecDistinct(ColumnarBatch{kcols.value(), {}, true});
  ExpectTablesIdentical(
      oracle::Distinct(keys_only.value()),
      BatchToTable(ColumnarBatch{kcols.value(), std::move(sel), false},
                   nullptr),
      what + " distinct");
}

TEST(KeyIndexTest, GroupsKeepFirstAppearanceOrderAcrossGrowth) {
  // 1500 strided keys (multiples of 2^40), each twice, in shuffled order.
  Rng rng(46);
  std::vector<int64_t> rows;
  for (int64_t v = 0; v < 1500; ++v) {
    rows.push_back(v << 40);
    rows.push_back(v << 40);
  }
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.NextBounded(i + 1)]);
  }
  Table t{Schema({{"k", DataType::kInt64}, {"x", DataType::kDouble}})};
  std::vector<int64_t> first_seen;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (std::find(first_seen.begin(), first_seen.end(), rows[i]) ==
        first_seen.end()) {
      first_seen.push_back(rows[i]);
    }
    t.Append({Value(rows[i]), Value(static_cast<double>(i % 9) * 0.5)});
  }
  auto ref = oracle::GroupBy(t, {"k"}, {{AggKind::kCount, "", "n"}});
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref.value().num_rows(), first_seen.size());
  for (size_t g = 0; g < first_seen.size(); ++g) {
    ASSERT_TRUE(ref.value().row(g)[0] == Value(first_seen[g])) << g;
  }
  ExpectGroupByAndDistinctMatchOracle(t, "strided");
}

TEST(KeyIndexTest, NanKeysAreEachTheirOwnGroup) {
  // Every NaN row is a group and a distinct row of its own (NaN != NaN).
  // All 1200 NaN keys hash alike, so the index must tell them apart by
  // key, beside 20 ordinary keys, and grow past 1024 groups while at it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t{Schema({{"k", DataType::kDouble}, {"x", DataType::kDouble}})};
  for (size_t i = 0; i < 2400; ++i) {
    const double k = i % 2 == 0 ? nan : static_cast<double>(i % 40);
    t.Append({Value(k), Value(static_cast<double>(i % 9) * 0.5)});
  }
  auto ref = oracle::GroupBy(t, {"k"}, {{AggKind::kCount, "", "n"}});
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref.value().num_rows(), 1200u + 20u);
  ExpectGroupByAndDistinctMatchOracle(t, "NaN");
}

TEST(KeyIndexTest, UnequalRowsUnderOneTagGetTwoGroups) {
  // Every row is offered under one tag, so rows 1 and 2 reach a full tag
  // match and only the key comparison tells 6 from 5. Rows 3 and 4 are
  // unequal to themselves: each is a group of its own, and neither takes a
  // slot, so no probe finds them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double keys[] = {5.0, 6.0, 5.0, nan, nan, 6.0};
  internal::KeyIndex index(0);
  auto offer = [&](uint32_t r) {
    return index.FindOrAdd(42, r,
                           [&](uint32_t f) { return keys[r] == keys[f]; });
  };
  EXPECT_EQ(offer(0), 0u);
  EXPECT_EQ(offer(1), 1u);
  EXPECT_EQ(offer(2), 0u);
  EXPECT_EQ(offer(3), 2u);
  EXPECT_EQ(offer(4), 3u);
  EXPECT_EQ(offer(5), 1u);
  EXPECT_EQ(index.first_rows(), (SelVector{0, 1, 3, 4}));
  EXPECT_EQ(index.Find(42, [&](uint32_t f) { return keys[f] == 6.0; }), 1u);
  EXPECT_EQ(index.Find(42, [&](uint32_t f) { return std::isnan(keys[f]); }),
            internal::kNone);
}

// ---------------------------------------------------------------------------
// Dictionary-code pushdown: string eq/ne runs as an integer compare on
// dictionary codes; the observable behavior must stay exactly
// ColumnCompare's, including literals absent from the dictionary and null
// cells.
// ---------------------------------------------------------------------------

TEST(DictPushdownTest, StringEqNeMatchesRowPath) {
  Table t{Schema({{"s", DataType::kString}, {"x", DataType::kInt64}})};
  for (int64_t i = 0; i < 300; ++i) {
    if (i % 7 == 0) {
      t.Append({Value(), Value(i)});  // null string cell
    } else {
      t.Append({Value(kStrings[i % 5]), Value(i)});
    }
  }
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  const ColumnarTable& ct = *cols.value();

  // A narrowing prefix filter to also exercise the selection-vector path.
  auto pre = VecFilter(ct, nullptr, "x", CmpOp::kLt, Value(int64_t{150}),
                       nullptr);
  ASSERT_TRUE(pre.ok());

  const Value literals[] = {Value("apple"), Value("durian"), Value(""),
                            Value("zed")};
  for (const Value& lit : literals) {
    for (CmpOp op : {CmpOp::kEq, CmpOp::kNe}) {
      auto pred = ColumnCompare(t.schema(), "s", op, lit);
      ASSERT_TRUE(pred.ok());
      // Dense path.
      auto sel = VecFilter(ct, nullptr, "s", op, lit, nullptr);
      ASSERT_TRUE(sel.ok());
      SelVector expect;
      for (size_t i = 0; i < t.num_rows(); ++i) {
        if (pred.value()(t.row(i))) expect.push_back(static_cast<uint32_t>(i));
      }
      EXPECT_EQ(sel.value(), expect)
          << "dense " << lit.ToString() << " op " << static_cast<int>(op);
      // Selection-vector path.
      auto sel2 = VecFilter(ct, &pre.value(), "s", op, lit, nullptr);
      ASSERT_TRUE(sel2.ok());
      SelVector expect2;
      for (uint32_t i : pre.value()) {
        if (pred.value()(t.row(i))) expect2.push_back(i);
      }
      EXPECT_EQ(sel2.value(), expect2)
          << "sel " << lit.ToString() << " op " << static_cast<int>(op);
    }
  }
}

// ---------------------------------------------------------------------------
// Cost-based join reordering, differentially against naive execution: the
// reordered plan must return the same bag of rows under the same schema,
// whatever order the optimizer picked.
// ---------------------------------------------------------------------------

std::vector<std::string> SortedRowStrings(const Table& t) {
  std::vector<std::string> out;
  out.reserve(t.num_rows());
  for (const Row& r : t.rows()) {
    std::string s;
    for (const Value& v : r) {
      s += v.ToString();
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ColumnarDifferentialTest, CostBasedReorderMatchesNaiveExecution) {
  Catalog::Global().ClearFeedback();
  Rng rng(2718);
  for (int iter = 0; iter < 200; ++iter) {
    // 2-4 relations with globally unique column names; table t carries an
    // int64 join key k<t> over a small domain so joins actually match.
    const size_t ntab = 2 + rng.NextBounded(3);
    std::vector<std::unique_ptr<Table>> tabs;
    for (size_t t = 0; t < ntab; ++t) {
      std::vector<ColumnSpec> specs;
      specs.push_back({"k" + std::to_string(t), DataType::kInt64});
      const size_t extra = rng.NextBounded(3);
      for (size_t c = 0; c < extra; ++c) {
        specs.push_back({"t" + std::to_string(t) + "c" + std::to_string(c),
                         RandomType(rng)});
      }
      auto tab = std::make_unique<Table>(Schema(specs));
      const size_t rows = rng.NextBounded(51);
      for (size_t i = 0; i < rows; ++i) {
        Row r;
        r.push_back(Value(static_cast<int64_t>(rng.NextBounded(8))));
        for (size_t c = 1; c < specs.size(); ++c) {
          r.push_back(
              RandomValueOfType(rng, specs[c].type, /*allow_null=*/true));
        }
        tab->Append(std::move(r));
      }
      tabs.push_back(std::move(tab));
    }
    // Tree-shaped cluster: each new relation joins the key of any earlier
    // one, so the reorderer sees chains, stars, and mixtures.
    PlanPtr plan = PlanNode::Scan(tabs[0].get(), "t0");
    for (size_t t = 1; t < ntab; ++t) {
      plan = PlanNode::Join(
          plan, PlanNode::Scan(tabs[t].get(), "t" + std::to_string(t)),
          {"k" + std::to_string(rng.NextBounded(t))},
          {"k" + std::to_string(t)});
    }
    if (rng.NextBounded(2) == 0) {
      const Table& ft = *tabs[rng.NextBounded(ntab)];
      plan = PlanNode::Filter(plan, {{RandomColumn(rng, ft, false),
                                      RandomOp(rng), RandomLiteral(rng)}});
    }
    auto opt = OptimizePlan(plan);
    ASSERT_TRUE(opt.ok()) << "iter " << iter;
    auto a = ExecutePlan(plan, nullptr);
    auto b = ExecutePlan(opt.value(), nullptr);
    ASSERT_EQ(a.ok(), b.ok()) << "iter " << iter;
    if (!a.ok()) continue;
    ASSERT_TRUE(a.value().schema() == b.value().schema())
        << "iter " << iter << ": " << a.value().schema().ToString() << " vs "
        << b.value().schema().ToString();
    ASSERT_EQ(SortedRowStrings(a.value()), SortedRowStrings(b.value()))
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace mde::table
