#include <gtest/gtest.h>

#include "row_oracle.h"
#include "table/plan.h"

namespace mde::table {
namespace {

Table Orders() {
  Table t{Schema({{"oid", DataType::kInt64},
                  {"cid", DataType::kInt64},
                  {"amount", DataType::kDouble}})};
  for (int64_t o = 0; o < 1000; ++o) {
    t.Append({Value(o), Value(o % 100), Value(10.0 + (o % 7))});
  }
  return t;
}

Table Customers() {
  Table t{Schema({{"cid", DataType::kInt64},
                  {"region", DataType::kString}})};
  for (int64_t c = 0; c < 100; ++c) {
    t.Append({Value(c), Value(c % 4 == 0 ? "EAST" : "WEST")});
  }
  return t;
}

TEST(PlanTest, ScanFilterProjectExecute) {
  Table orders = Orders();
  PlanPtr plan = PlanNode::Project(
      PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                       {{"amount", CmpOp::kGt, Value(14.0)}}),
      {"oid", "amount"});
  ExecutionStats stats;
  auto result = ExecutePlan(plan, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().schema().num_columns(), 2u);
  EXPECT_GT(result.value().num_rows(), 0u);
  EXPECT_EQ(stats.rows_scanned, 1000u);
  for (const Row& r : result.value().rows()) {
    EXPECT_GT(r[1].AsDouble(), 14.0);
  }
}

TEST(PlanTest, OutputSchemaResolution) {
  Table orders = Orders();
  Table customers = Customers();
  PlanPtr join =
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"});
  auto schema = join->OutputSchema();
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema.value().Has("oid"));
  EXPECT_TRUE(schema.value().Has("r.cid"));  // right-side duplicate renamed
  EXPECT_TRUE(schema.value().Has("region"));
}

TEST(PlanTest, OptimizedPlanGivesSameAnswer) {
  Table orders = Orders();
  Table customers = Customers();
  // Filter above the join references one column from each side.
  PlanPtr naive = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(12.0)}});
  auto optimized = OptimizePlan(naive);
  ASSERT_TRUE(optimized.ok());

  auto a = ExecutePlan(naive, nullptr);
  auto b = ExecutePlan(optimized.value(), nullptr);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().num_rows(), b.value().num_rows());
  ASSERT_TRUE(a.value().schema() == b.value().schema());
  // Row-set equality via sorted comparison on a key.
  auto sa = oracle::OrderBy(a.value(), {"oid"}).value();
  auto sb = oracle::OrderBy(b.value(), {"oid"}).value();
  for (size_t i = 0; i < sa.num_rows(); ++i) {
    EXPECT_TRUE(sa.row(i)[0] == sb.row(i)[0]);
  }
}

TEST(PlanTest, PushdownReducesIntermediateRows) {
  Table orders = Orders();
  Table customers = Customers();
  PlanPtr naive = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(15.0)}});
  auto optimized = OptimizePlan(naive).value();

  ExecutionStats naive_stats, opt_stats;
  ASSERT_TRUE(ExecutePlan(naive, &naive_stats).ok());
  ASSERT_TRUE(ExecutePlan(optimized, &opt_stats).ok());
  // Naive: join materializes 1000 rows, filter runs after. Optimized:
  // both inputs shrink before the join.
  EXPECT_LT(opt_stats.intermediate_rows, naive_stats.intermediate_rows / 2);
}

TEST(PlanTest, PushdownThroughRightSidePrefix) {
  Table orders = Orders();
  Table customers = Customers();
  // Predicate written against the join-output name "r.cid".
  PlanPtr naive = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {{"r.cid", CmpOp::kLt, Value(int64_t{10})}});
  auto optimized = OptimizePlan(naive);
  ASSERT_TRUE(optimized.ok());
  // The filter sank below the join (root is now the join).
  EXPECT_EQ(optimized.value()->kind(), PlanNode::Kind::kJoin);
  auto a = ExecutePlan(naive, nullptr).value();
  auto b = ExecutePlan(optimized.value(), nullptr).value();
  EXPECT_EQ(a.num_rows(), b.num_rows());
}

TEST(PlanTest, FilterMergesThroughProjection) {
  Table orders = Orders();
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Project(PlanNode::Scan(&orders, "orders"),
                        {"oid", "amount"}),
      {{"amount", CmpOp::kLe, Value(11.0)}});
  auto optimized = OptimizePlan(plan);
  ASSERT_TRUE(optimized.ok());
  // Root is the projection; the filter sits below it now.
  EXPECT_EQ(optimized.value()->kind(), PlanNode::Kind::kProject);
  auto a = ExecutePlan(plan, nullptr).value();
  auto b = ExecutePlan(optimized.value(), nullptr).value();
  EXPECT_EQ(a.num_rows(), b.num_rows());
}

TEST(PlanTest, UnknownPredicateColumnErrors) {
  Table orders = Orders();
  PlanPtr plan =
      PlanNode::Filter(PlanNode::Scan(&orders, "orders"),
                       {{"missing", CmpOp::kEq, Value(int64_t{1})}});
  EXPECT_FALSE(ExecutePlan(plan, nullptr).ok());
}

TEST(PlanTest, ExplainShowsTree) {
  Table orders = Orders();
  Table customers = Customers();
  PlanPtr plan = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&orders, "orders"),
                     PlanNode::Scan(&customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")}});
  const std::string naive = ExplainPlan(plan);
  EXPECT_NE(naive.find("Filter(region = EAST)"), std::string::npos);
  EXPECT_NE(naive.find("HashJoin(cid=cid)"), std::string::npos);
  const std::string opt = ExplainPlan(OptimizePlan(plan).value());
  // After pushdown the filter appears under the join (deeper indentation).
  EXPECT_LT(opt.find("HashJoin"), opt.find("Filter"));
}

}  // namespace
}  // namespace mde::table
