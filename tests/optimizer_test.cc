#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "table/catalog.h"
#include "table/cost.h"
#include "table/ops.h"
#include "table/optimizer.h"
#include "table/plan.h"
#include "table/table.h"
#include "table/value.h"

namespace mde::table {
namespace {

Table Orders(size_t n = 1000) {
  Table t{Schema({{"oid", DataType::kInt64},
                  {"cid", DataType::kInt64},
                  {"amount", DataType::kDouble}})};
  for (size_t o = 0; o < n; ++o) {
    t.Append({Value(static_cast<int64_t>(o)),
              Value(static_cast<int64_t>(o % 100)),
              Value(10.0 + static_cast<double>(o % 7))});
  }
  return t;
}

Table Customers(size_t n = 100) {
  Table t{Schema({{"cid", DataType::kInt64}, {"region", DataType::kString}})};
  for (size_t c = 0; c < n; ++c) {
    t.Append({Value(static_cast<int64_t>(c)),
              Value(c % 4 == 0 ? "EAST" : "WEST")});
  }
  return t;
}

/// Sorted multiset of row renderings — order-insensitive result equality.
std::vector<std::string> RowStrings(const Table& t) {
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

// ---------------------------------------------------------------------------
// Statistics catalog
// ---------------------------------------------------------------------------

TEST(CatalogTest, NumericColumnStats) {
  Table t = Orders(1000);
  auto stats = Catalog::Global().StatsFor(t);
  ASSERT_EQ(stats->row_count, 1000u);
  const ColumnStats* oid = stats->Find("oid");
  ASSERT_NE(oid, nullptr);
  EXPECT_TRUE(oid->has_range);
  EXPECT_DOUBLE_EQ(oid->min, 0.0);
  EXPECT_DOUBLE_EQ(oid->max, 999.0);
  EXPECT_DOUBLE_EQ(oid->distinct, 1000.0);  // exact below kDistinctExact
  EXPECT_DOUBLE_EQ(oid->null_fraction, 0.0);
  EXPECT_TRUE(oid->sorted_asc);
  EXPECT_FALSE(oid->sorted_desc);
  ASSERT_EQ(oid->hist.size(), ColumnStats::kHistBuckets);
  uint64_t binned = 0;
  for (uint64_t b : oid->hist) binned += b;
  EXPECT_EQ(binned, 1000u);
  EXPECT_EQ(oid->hist_rows, 1000u);

  const ColumnStats* amount = stats->Find("amount");
  ASSERT_NE(amount, nullptr);
  EXPECT_DOUBLE_EQ(amount->min, 10.0);
  EXPECT_DOUBLE_EQ(amount->max, 16.0);
  EXPECT_DOUBLE_EQ(amount->distinct, 7.0);
  EXPECT_FALSE(amount->sorted_asc);
}

TEST(CatalogTest, StringDictionaryDistinct) {
  Table t{Schema({{"s", DataType::kString}})};
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) {
      t.Append({Value()});
    } else {
      t.Append({Value(std::string(1, static_cast<char>('a' + i % 4)))});
    }
  }
  auto stats = Catalog::Global().StatsFor(t);
  const ColumnStats* s = stats->Find("s");
  ASSERT_NE(s, nullptr);
  // Dictionary cardinality is the distinct estimate — exact.
  EXPECT_DOUBLE_EQ(s->distinct, 4.0);
  EXPECT_NEAR(s->null_fraction, 0.1, 1e-12);
  EXPECT_FALSE(s->has_range);
  EXPECT_TRUE(s->hist.empty());
}

TEST(CatalogTest, EmptyTableStats) {
  Table t{Schema({{"a", DataType::kInt64}, {"b", DataType::kString}})};
  auto stats = Catalog::Global().StatsFor(t);
  EXPECT_EQ(stats->row_count, 0u);
  const ColumnStats* a = stats->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(a->has_range);
  EXPECT_DOUBLE_EQ(a->distinct, 0.0);
  EXPECT_DOUBLE_EQ(a->null_fraction, 0.0);
  EXPECT_FALSE(a->sorted_asc);
  EXPECT_EQ(stats->Find("missing"), nullptr);
}

TEST(CatalogTest, StatsMemoizedAndDroppedOnMutation) {
  Table t = Orders(50);
  auto s1 = Catalog::Global().StatsFor(t);
  auto s2 = Catalog::Global().StatsFor(t);
  EXPECT_EQ(s1.get(), s2.get());  // memoized, no rescan
  t.Append({Value(int64_t{50}), Value(int64_t{50}), Value(99.0)});
  auto s3 = Catalog::Global().StatsFor(t);
  EXPECT_NE(s1.get(), s3.get());
  EXPECT_EQ(s3->row_count, 51u);
  EXPECT_DOUBLE_EQ(s3->Find("amount")->max, 99.0);
}

// ---------------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------------

TEST(CostTest, AllRowsAndNoRowsSelectivity) {
  Catalog::Global().ClearFeedback();
  Table orders = Orders(1000);
  PlanPtr scan = PlanNode::Scan(&orders, "orders");
  CostModel model;
  EXPECT_DOUBLE_EQ(model.EstimateRows(scan), 1000.0);

  // amount <= max: every row qualifies.
  PlanPtr all = PlanNode::Filter(scan, {{"amount", CmpOp::kLe, Value(16.0)}});
  EXPECT_NEAR(model.EstimateRows(all), 1000.0, 1.0);

  // amount > max / amount < min: nothing qualifies.
  PlanPtr none_hi =
      PlanNode::Filter(scan, {{"amount", CmpOp::kGt, Value(16.0)}});
  EXPECT_NEAR(model.EstimateRows(none_hi), 0.0, 1000.0 / 7.0 + 1.0);
  PlanPtr none_lo =
      PlanNode::Filter(scan, {{"amount", CmpOp::kLt, Value(10.0)}});
  EXPECT_NEAR(model.EstimateRows(none_lo), 0.0, 1.0);
  // Equality outside [min, max] is impossible.
  PlanPtr none_eq =
      PlanNode::Filter(scan, {{"amount", CmpOp::kEq, Value(500.0)}});
  EXPECT_DOUBLE_EQ(model.EstimateRows(none_eq), 0.0);
  // Comparisons to null never match.
  PlanPtr null_lit = PlanNode::Filter(scan, {{"amount", CmpOp::kEq, Value()}});
  EXPECT_DOUBLE_EQ(model.EstimateRows(null_lit), 0.0);
}

TEST(CostTest, EmptyTableEstimatesZero) {
  Catalog::Global().ClearFeedback();
  Table empty{Schema({{"x", DataType::kInt64}})};
  PlanPtr plan = PlanNode::Filter(PlanNode::Scan(&empty, "empty"),
                                  {{"x", CmpOp::kGt, Value(int64_t{0})}});
  CostModel model;
  EXPECT_DOUBLE_EQ(model.EstimateRows(plan), 0.0);
  EXPECT_GE(model.EstimateCost(plan), 0.0);
}

TEST(CostTest, HistogramRangeEstimateTracksData) {
  Catalog::Global().ClearFeedback();
  Table orders = Orders(1000);
  PlanPtr scan = PlanNode::Scan(&orders, "orders");
  CostModel model;
  // amount > 14 keeps {15, 16}: 2 of the 7 lattice values = ~286 rows.
  PlanPtr plan = PlanNode::Filter(scan, {{"amount", CmpOp::kGt, Value(14.0)}});
  const double est = model.EstimateRows(plan);
  EXPECT_GT(est, 100.0);
  EXPECT_LT(est, 500.0);
}

// ---------------------------------------------------------------------------
// Optimizer passes
// ---------------------------------------------------------------------------

TEST(OptimizerTest, PredicateOrderingMostSelectiveFirst) {
  Catalog::Global().ClearFeedback();
  Table orders = Orders(1000);
  // As written: a keep-everything range predicate ahead of a point lookup.
  PlanPtr plan = PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                                  {{"amount", CmpOp::kLe, Value(16.0)},
                                   {"oid", CmpOp::kEq, Value(int64_t{5})}});
  auto opt = OptimizePlan(plan);
  ASSERT_TRUE(opt.ok());
  ASSERT_EQ(opt.value()->kind(), PlanNode::Kind::kFilter);
  const auto& preds = opt.value()->predicates();
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_EQ(preds[0].column, "oid");  // 1/1000 sorts before ~1.0
  EXPECT_EQ(preds[1].column, "amount");

  auto a = ExecutePlan(plan, nullptr);
  auto b = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));
}

TEST(OptimizerTest, FilterAboveProjectWithSurvivingColumn) {
  Table orders = Orders(1000);
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Project(PlanNode::Scan(&orders, "orders"), {"oid", "amount"}),
      {{"amount", CmpOp::kGt, Value(14.0)}});
  auto opt = OptimizePlan(plan);
  ASSERT_TRUE(opt.ok());
  // The filter sank below the projection.
  EXPECT_EQ(opt.value()->kind(), PlanNode::Kind::kProject);
  auto a = ExecutePlan(plan, nullptr);
  auto b = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));
  EXPECT_TRUE(a.value().schema() == b.value().schema());
}

TEST(OptimizerTest, FilterAboveProjectWithDroppedColumnErrors) {
  Table orders = Orders(100);
  // "amount" does not survive the projection, so the predicate can never
  // be evaluated — both the optimizer and the executor must say so.
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Project(PlanNode::Scan(&orders, "orders"), {"oid"}),
      {{"amount", CmpOp::kGt, Value(14.0)}});
  EXPECT_FALSE(OptimizePlan(plan).ok());
  EXPECT_FALSE(ExecutePlan(plan, nullptr).ok());
}

TEST(OptimizerTest, ProjectionPushdownNarrowsScans) {
  Table orders = Orders(1000);
  Table customers = Customers(100);
  PlanPtr plan = PlanNode::Project(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {"oid", "region"});
  auto opt = OptimizePlan(plan);
  ASSERT_TRUE(opt.ok());
  // The join inputs are themselves projections now: "amount" never crosses
  // the join. ExplainPlan shows one Project per narrowed scan.
  const std::string explain = ExplainPlan(opt.value());
  size_t projects = 0;
  for (size_t pos = explain.find("Project");
       pos != std::string::npos; pos = explain.find("Project", pos + 1)) {
    ++projects;
  }
  EXPECT_GE(projects, 2u) << explain;
  EXPECT_EQ(explain.find("amount"), std::string::npos) << explain;

  auto a = ExecutePlan(plan, nullptr);
  auto b = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value().schema() == b.value().schema());
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));
}

TEST(OptimizerTest, JoinReorderPreservesResultAndSchema) {
  Catalog::Global().ClearFeedback();
  // A chain written worst-first: big x big, then the tiny filter arrives
  // last. A cost-based reorder joins through the small side first.
  Table orders = Orders(2000);
  Table customers = Customers(100);
  Table regions{Schema({{"region", DataType::kString},
                        {"zone", DataType::kInt64}})};
  regions.Append({Value("EAST"), Value(int64_t{1})});
  regions.Append({Value("WEST"), Value(int64_t{2})});

  PlanPtr plan = PlanNode::Filter(
      PlanNode::Join(
          PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                         PlanNode::Scan(&customers, "customers"), {"cid"},
                         {"cid"}),
          PlanNode::Scan(&regions, "regions"), {"region"}, {"region"}),
      {{"zone", CmpOp::kEq, Value(int64_t{1})}});
  auto opt = OptimizePlan(plan);
  ASSERT_TRUE(opt.ok());
  auto a = ExecutePlan(plan, nullptr);
  auto b = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a.value().schema() == b.value().schema())
      << a.value().schema().ToString() << " vs "
      << b.value().schema().ToString();
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));
}

// bench_query_pushdown's plan at test scale: both filters written above an
// orders x customers join. The cost-based optimizer must find the pushed-down
// shape (each filter on its scan), which shows as intermediate-row work, not
// as timing: 3076 + 100 + 615 rows against 20000 + 615 as written.
TEST(OptimizerTest, PushdownShrinksIntermediateRowsOfFilterAboveJoin) {
  Catalog::Global().ClearFeedback();
  constexpr size_t kOrders = 20000;
  constexpr size_t kCustomers = 500;
  Table orders{Schema({{"oid", DataType::kInt64},
                       {"cid", DataType::kInt64},
                       {"amount", DataType::kDouble}})};
  for (size_t o = 0; o < kOrders; ++o) {
    orders.Append({Value(static_cast<int64_t>(o)),
                   Value(static_cast<int64_t>(o % kCustomers)),
                   Value(10.0 + static_cast<double>(o % 13))});
  }
  Table customers{
      Schema({{"cid", DataType::kInt64}, {"region", DataType::kString}})};
  for (size_t c = 0; c < kCustomers; ++c) {
    customers.Append({Value(static_cast<int64_t>(c)),
                      Value(c % 5 == 0 ? "EAST" : "WEST")});
  }
  const PlanPtr naive = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(20.0)}});
  const PlanPtr by_hand = PlanNode::Join(
      PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                       {{"amount", CmpOp::kGt, Value(20.0)}}),
      PlanNode::Filter(PlanNode::Scan(&customers, "customers"),
                       {{"region", CmpOp::kEq, Value("EAST")}}),
      {"cid"}, {"cid"});
  auto optimized = OptimizePlan(naive);
  ASSERT_TRUE(optimized.ok());

  ExecutionStats naive_stats, opt_stats, hand_stats;
  auto a = ExecutePlan(naive, &naive_stats);
  auto b = ExecutePlan(optimized.value(), &opt_stats);
  ASSERT_TRUE(ExecutePlan(by_hand, &hand_stats).ok());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a.value().schema() == b.value().schema());
  EXPECT_EQ(a.value().num_rows(), 615u);
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));

  // Fully pushed down is ~0.18 of the naive work; pushing only the region
  // filter gives ~0.23 and pushing nothing 1.0.
  EXPECT_LE(static_cast<double>(opt_stats.intermediate_rows),
            0.2 * static_cast<double>(naive_stats.intermediate_rows))
      << "optimized " << opt_stats.intermediate_rows << " vs naive "
      << naive_stats.intermediate_rows << "\n"
      << ExplainPlan(optimized.value());
  EXPECT_LE(opt_stats.intermediate_rows, hand_stats.intermediate_rows);
}

TEST(OptimizerTest, EmptyInputsOptimizeAndExecute) {
  Table el{Schema({{"k", DataType::kInt64}, {"v", DataType::kDouble}})};
  Table er{Schema({{"k", DataType::kInt64}, {"w", DataType::kString}})};
  PlanPtr plan = PlanNode::Project(
      PlanNode::Filter(
          PlanNode::Join(PlanNode::Scan(&el, "el"), PlanNode::Scan(&er, "er"),
                         {"k"}, {"k"}),
          {{"v", CmpOp::kGt, Value(0.0)}}),
      {"k", "w"});
  auto opt = OptimizePlan(plan);
  ASSERT_TRUE(opt.ok());
  auto out = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().num_rows(), 0u);
}

TEST(OptimizerTest, DisabledPassesLeavePlanExecutable) {
  Table orders = Orders(500);
  PlanPtr plan = PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                                  {{"amount", CmpOp::kGt, Value(14.0)}});
  OptimizerOptions off;
  off.push_selections = off.reorder_joins = off.push_projections =
      off.order_predicates = false;
  auto opt = CostBasedOptimize(plan, off);
  ASSERT_TRUE(opt.ok());
  auto a = ExecutePlan(plan, nullptr);
  auto b = ExecutePlan(opt.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(RowStrings(a.value()), RowStrings(b.value()));
}

// ---------------------------------------------------------------------------
// Self-correcting feedback loop
// ---------------------------------------------------------------------------

TEST(FeedbackTest, EstimatesTightenBetweenRuns) {
  Catalog::Global().ClearFeedback();
  // Skewed data the analytic model must mis-estimate: 90% of amounts are
  // one value, so eq-selectivity 1/ndv (uniform assumption) is far off.
  Table t{Schema({{"id", DataType::kInt64}, {"amount", DataType::kDouble}})};
  for (int64_t i = 0; i < 1000; ++i) {
    t.Append({Value(i), Value(i % 10 == 0 ? static_cast<double>(i) : 42.0)});
  }
  PlanPtr plan = PlanNode::Filter(PlanNode::Scan(&t, "skewed"),
                                  {{"amount", CmpOp::kEq, Value(42.0)}});

  ExecutionStats run1;
  ASSERT_TRUE(ExecutePlan(plan, &run1).ok());
  ASSERT_EQ(run1.nodes.size(), 2u);  // Filter, Scan
  const double actual = static_cast<double>(run1.nodes[0].rows_out);
  ASSERT_GT(actual, 800.0);
  ASSERT_GE(run1.nodes[0].est_rows, 0.0);
  const double err1 = std::abs(run1.nodes[0].est_rows - actual) / actual;
  EXPECT_GT(err1, 0.5);  // the uniform guess is badly wrong here
  EXPECT_GT(Catalog::Global().feedback_entries(), 0u);

  // Run 2: the recorded actual replaces the analytic guess.
  ExecutionStats run2;
  ASSERT_TRUE(ExecutePlan(plan, &run2).ok());
  const double err2 = std::abs(run2.nodes[0].est_rows - actual) / actual;
  EXPECT_LT(err2, err1);
  EXPECT_NEAR(run2.nodes[0].est_rows, actual, 0.5);
}

TEST(FeedbackTest, FingerprintIgnoresPredicateOrderAndJoinSides) {
  Table orders = Orders(100);
  Table customers = Customers(10);
  PlanPtr a = PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                               {{"amount", CmpOp::kGt, Value(14.0)},
                                {"oid", CmpOp::kEq, Value(int64_t{5})}});
  PlanPtr b = PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                               {{"oid", CmpOp::kEq, Value(int64_t{5})},
                                {"amount", CmpOp::kGt, Value(14.0)}});
  EXPECT_EQ(PlanFingerprint(a), PlanFingerprint(b));

  PlanPtr j1 = PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                              PlanNode::Scan(&customers, "customers"),
                              {"cid"}, {"cid"});
  PlanPtr j2 = PlanNode::Join(PlanNode::Scan(&customers, "customers"),
                              PlanNode::Scan(&orders, "orders"), {"cid"},
                              {"cid"});
  EXPECT_EQ(PlanFingerprint(j1), PlanFingerprint(j2));

  // Projections never change cardinality, so they share the child's key.
  PlanPtr p = PlanNode::Project(a, {"oid"});
  EXPECT_EQ(PlanFingerprint(p), PlanFingerprint(a));
}

TEST(FeedbackTest, ScanFingerprintTracksRowCount) {
  Table t1 = Orders(100);
  Table t2 = Orders(200);
  // Same table name, different row count: feedback for one never pollutes
  // the other (the count is part of the key).
  EXPECT_NE(PlanFingerprint(PlanNode::Scan(&t1, "orders")),
            PlanFingerprint(PlanNode::Scan(&t2, "orders")));
}

TEST(FeedbackTest, MutationInvalidatesFeedbackEvenAtSameRowCount) {
  Catalog::Global().ClearFeedback();
  // Skewed so the analytic guess and the recorded actual are far apart.
  Table t{Schema({{"id", DataType::kInt64}, {"amount", DataType::kDouble}})};
  for (int64_t i = 0; i < 1000; ++i) {
    t.Append({Value(i), Value(i % 10 == 0 ? static_cast<double>(i) : 42.0)});
  }
  PlanPtr plan = PlanNode::Filter(PlanNode::Scan(&t, "skewed"),
                                  {{"amount", CmpOp::kEq, Value(42.0)}});
  const std::string fp_before = PlanFingerprint(plan);

  ExecutionStats run1;
  ASSERT_TRUE(ExecutePlan(plan, &run1).ok());
  const double actual = static_cast<double>(run1.nodes[0].rows_out);
  ASSERT_GT(actual, 800.0);
  double fed_back = 0.0;
  ASSERT_TRUE(Catalog::Global().LookupActual(fp_before, &fed_back));
  EXPECT_EQ(fed_back, actual);

  // Overwrite every amount in place: the row count is unchanged, but the
  // recorded actual (≈900 matches) is now wildly stale (0 match).
  for (size_t r = 0; r < t.num_rows(); ++r) {
    t.Set(r, 1, Value(-1.0));
  }
  const std::string fp_after = PlanFingerprint(plan);
  EXPECT_NE(fp_before, fp_after);  // content-version salt changed the key
  double stale = 0.0;
  EXPECT_FALSE(Catalog::Global().LookupActual(fp_after, &stale));
  // The estimate for the mutated table is analytic again, not the stale
  // ~900-row actual that used to leak through the unchanged row count.
  CostModel model;
  EXPECT_LT(model.EstimateRows(plan), 800.0);

  // Unmutated copies keep sharing the original key (feedback still works).
  Catalog::Global().ClearFeedback();
}

}  // namespace
}  // namespace mde::table
