#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "row_oracle.h"
#include "table/catalog.h"
#include "table/columnar.h"
#include "table/query.h"
#include "table/table.h"
#include "table/value.h"
#include "table/vec_ops.h"

namespace mde::table {
namespace {

Table MakePeople() {
  Table t{Schema({{"pid", DataType::kInt64},
                  {"age", DataType::kInt64},
                  {"city", DataType::kString},
                  {"income", DataType::kDouble}})};
  t.Append({Value(int64_t{1}), Value(int64_t{3}), Value("NYC"), Value(0.0)});
  t.Append({Value(int64_t{2}), Value(int64_t{25}), Value("NYC"),
            Value(55000.0)});
  t.Append({Value(int64_t{3}), Value(int64_t{40}), Value("SF"),
            Value(90000.0)});
  t.Append({Value(int64_t{4}), Value(int64_t{4}), Value("SF"), Value(0.0)});
  t.Append({Value(int64_t{5}), Value(int64_t{67}), Value("NYC"),
            Value(30000.0)});
  return t;
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("x").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
  EXPECT_DOUBLE_EQ(Value(int64_t{5}).AsDouble(), 5.0);  // numeric coercion
}

TEST(ValueTest, NullNeverEquals) {
  EXPECT_FALSE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(1)));
}

TEST(ValueTest, CrossNumericEquality) {
  EXPECT_TRUE(Value(int64_t{3}).Equals(Value(3.0)));
  EXPECT_FALSE(Value(int64_t{3}).Equals(Value(3.5)));
}

TEST(ValueTest, OrderingAcrossTypes) {
  EXPECT_TRUE(Value(int64_t{1}).LessThan(Value(2.5)));
  EXPECT_TRUE(Value(false).LessThan(Value(true)));
  EXPECT_TRUE(Value("a").LessThan(Value("b")));
  EXPECT_TRUE(Value(int64_t{99}).LessThan(Value("a")));  // numeric < string
}

TEST(SchemaTest, LookupAndDuplicates) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.IndexOf("b").value(), 1u);
  EXPECT_FALSE(s.IndexOf("c").ok());
  EXPECT_TRUE(s.Has("a"));
}

TEST(SchemaTest, ConcatPrefixesDuplicates) {
  Schema a({{"id", DataType::kInt64}, {"x", DataType::kDouble}});
  Schema b({{"id", DataType::kInt64}, {"y", DataType::kDouble}});
  Schema c = Schema::Concat(a, b, "r.");
  EXPECT_EQ(c.num_columns(), 4u);
  EXPECT_TRUE(c.Has("r.id"));
  EXPECT_TRUE(c.Has("y"));
}

TEST(FilterTest, ColumnCompare) {
  Table t = MakePeople();
  auto pred = ColumnCompare(t.schema(), "age", CmpOp::kLe, int64_t{4});
  ASSERT_TRUE(pred.ok());
  Table kids = oracle::Filter(t, pred.value());
  EXPECT_EQ(kids.num_rows(), 2u);
}

TEST(ProjectTest, SelectsAndErrors) {
  Table t = MakePeople();
  auto proj = Query(t).Select({"city", "pid"}).Execute();
  ASSERT_TRUE(proj.ok());
  EXPECT_TRUE(proj.value().schema() ==
              Schema({{"city", DataType::kString}, {"pid", DataType::kInt64}}));
  EXPECT_EQ(proj.value().num_rows(), 5u);
  EXPECT_EQ(proj.value().row(2)[0].AsString(), "SF");
  EXPECT_EQ(proj.value().row(2)[1].AsInt(), 3);
  auto bad = Query(t).Select({"nope"}).Execute();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(HashJoinTest, MatchesPairs) {
  Table people = MakePeople();
  Table infected{Schema({{"pid", DataType::kInt64}})};
  infected.Append({Value(int64_t{1})});
  infected.Append({Value(int64_t{3})});
  infected.Append({Value(int64_t{99})});  // no match
  auto joined = oracle::HashJoin(people, infected, {"pid"}, {"pid"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().num_rows(), 2u);
}

TEST(HashJoinTest, DuplicateKeysProduceCross) {
  Table a{Schema({{"k", DataType::kInt64}, {"tag", DataType::kString}})};
  a.Append({Value(int64_t{1}), Value("x")});
  a.Append({Value(int64_t{1}), Value("y")});
  Table b = a;
  auto joined = Query(a).Join(b, {"k"}, {"k"}).Execute();
  ASSERT_TRUE(joined.ok());
  const Table& j = joined.value();
  EXPECT_TRUE(j.schema().Has("r.tag"));
  // Every left row pairs with every right row, left-major.
  ASSERT_EQ(j.num_rows(), 4u);
  const char* kPairs[][2] = {{"x", "x"}, {"x", "y"}, {"y", "x"}, {"y", "y"}};
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(j.row(i)[1].AsString(), kPairs[i][0]) << i;
    EXPECT_EQ(j.row(i)[3].AsString(), kPairs[i][1]) << i;
  }
}

TEST(HashJoinTest, NullKeysNeverJoin) {
  Table a{Schema({{"k", DataType::kInt64}})};
  a.Append({Value()});
  Table b = a;
  auto joined = Query(a).Join(b, {"k"}, {"k"}).Execute();
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().num_rows(), 0u);
}

TEST(GroupByTest, AggregatesPerGroup) {
  Table t = MakePeople();
  auto g = oracle::GroupBy(t, {"city"},
                           {{AggKind::kCount, "", "n"},
                            {AggKind::kAvg, "income", "avg_inc"},
                            {AggKind::kMax, "age", "max_age"}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_rows(), 2u);
  // NYC group: 3 people, incomes 0, 55000, 30000.
  auto sorted = oracle::OrderBy(g.value(), {"city"});
  ASSERT_TRUE(sorted.ok());
  const Row& nyc = sorted.value().row(0);
  EXPECT_EQ(nyc[0].AsString(), "NYC");
  EXPECT_EQ(nyc[1].AsInt(), 3);
  EXPECT_NEAR(nyc[2].AsDouble(), 85000.0 / 3.0, 1e-9);
}

TEST(GroupByTest, GlobalAggregate) {
  Table t = MakePeople();
  auto g = oracle::GroupBy(t, {}, {{AggKind::kSum, "income", "total"}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(g.value().row(0)[0].AsDouble(), 175000.0);
}

TEST(GroupByTest, RejectsNonNumericAggregate) {
  Table t = MakePeople();
  auto g = Query(t).GroupByAgg({}, {{AggKind::kSum, "city", "x"}}).Execute();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(OrderByTest, MultiKeyAndDescending) {
  Table t = MakePeople();
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  const ColumnarBatch batch{cols.value(), {}, true};
  auto sel = VecOrderBy(batch, {"city", "age"}, {false, true});
  ASSERT_TRUE(sel.ok());
  // NYC (ages 67, 25, 3) before SF (40, 4), oldest first within a city.
  EXPECT_EQ(sel.value(), (SelVector{4, 1, 0, 2, 3}));
  EXPECT_FALSE(VecOrderBy(batch, {"city"}, {false, true}).ok());
  EXPECT_FALSE(VecOrderBy(batch, {"nope"}, {}).ok());
}

TEST(UnionDistinctLimitTest, Basics) {
  Table t = MakePeople();
  auto u = Union(t, t);
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().num_rows(), 10u);
  EXPECT_EQ(oracle::Distinct(u.value()).num_rows(), 5u);
  EXPECT_EQ(oracle::Limit(t, 2).num_rows(), 2u);
}

TEST(UnionTest, RejectsSchemaMismatch) {
  Table a{Schema({{"x", DataType::kInt64}})};
  Table b{Schema({{"y", DataType::kInt64}})};
  EXPECT_FALSE(Union(a, b).ok());
}

TEST(QueryTest, ChainedPipeline) {
  Table t = MakePeople();
  auto result = Query(t)
                    .Where("age", CmpOp::kGe, int64_t{18})
                    .Where("city", CmpOp::kEq, "NYC")
                    .Select({"pid", "income"})
                    .OrderByDesc({"income"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(result.value().row(0)[1].AsDouble(), 55000.0);
}

TEST(QueryTest, ErrorPoisonsChain) {
  Table t = MakePeople();
  auto result = Query(t).Where("nope", CmpOp::kEq, 1).Select({"pid"}).Execute();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, CountStarScalar) {
  Table t = MakePeople();
  auto n = Query(t).Where("age", CmpOp::kLe, int64_t{4}).CountStar("n")
               .ExecuteScalar();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().AsInt(), 2);
}

// MVCC snapshots hand one const Table to many sessions, so the lazy caches
// (boxed rows of a columnar-backed table, the columnar conversion of a
// row-backed one, the statistics) must fill safely under concurrent first
// touch. TSan checks the fills; the asserts check every reader saw them
// complete.
TEST(TableConcurrencyTest, ConcurrentFirstTouchOfLazyCaches) {
  constexpr size_t kRows = 4096;
  constexpr int kThreads = 4;
  Table source{Schema({{"id", DataType::kInt64}, {"x", DataType::kDouble}})};
  for (size_t i = 0; i < kRows; ++i) {
    source.Append({Value(static_cast<int64_t>(i)),
                   Value(0.5 * static_cast<double>(i))});
  }
  auto blocks = source.ToColumnar();
  ASSERT_TRUE(blocks.ok());
  const Table columnar_backed = Table::FromColumnar(blocks.value());
  const Table row_backed = source;  // copies rows, not a pending fill

  std::latch start(kThreads);
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const size_t i = (kRows / kThreads) * static_cast<size_t>(t) + 7;
      const bool row_ok = columnar_backed.row(i)[0].AsInt() ==
                              static_cast<int64_t>(i) &&
                          columnar_backed.rows().size() == kRows &&
                          columnar_backed.num_rows() == kRows;
      auto cols = row_backed.ToColumnar();
      const bool cols_ok = cols.ok() && cols.value() != nullptr &&
                           cols.value()->num_rows() == kRows &&
                           row_backed.columnar() == cols.value();
      auto stats = Catalog::Global().StatsFor(columnar_backed);
      const bool stats_ok = stats != nullptr && stats->row_count == kRows &&
                            columnar_backed.stats_cache() != nullptr;
      ok[static_cast<size_t>(t)] = row_ok && cols_ok && stats_ok;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<size_t>(t)]);
  // Every reader got the one cached conversion.
  EXPECT_EQ(row_backed.ToColumnar().value(), row_backed.columnar());
  EXPECT_EQ(columnar_backed.row(kRows - 1)[1].AsDouble(),
            0.5 * static_cast<double>(kRows - 1));
}

TEST(TableConcurrencyTest, CopiesAndMutationsKeepValueSemantics) {
  Table t = MakePeople();
  auto cols = t.ToColumnar();
  ASSERT_TRUE(cols.ok());
  const Table wrapped = Table::FromColumnar(cols.value());
  Table copy = wrapped;  // unmaterialized copy stays columnar-backed
  EXPECT_EQ(copy.columnar(), cols.value());
  EXPECT_EQ(copy.num_rows(), 5u);
  copy.Set(0, 1, Value(int64_t{99}));  // materializes, then detaches
  EXPECT_EQ(copy.columnar(), nullptr);
  EXPECT_EQ(copy.stats_cache(), nullptr);
  EXPECT_EQ(copy.row(0)[1].AsInt(), 99);
  EXPECT_EQ(wrapped.row(0)[1].AsInt(), 3);  // the original is untouched
  Table moved = std::move(copy);
  EXPECT_EQ(moved.num_rows(), 5u);
  EXPECT_EQ(moved.row(0)[1].AsInt(), 99);
}

TEST(ScalarHelpersTest, SumAvg) {
  Table t = MakePeople();
  auto sum = Query(t)
                 .GroupByAgg({}, {{AggKind::kSum, "income", "total"}})
                 .ExecuteScalar();
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value().AsDouble(), 175000.0);
  EXPECT_DOUBLE_EQ(oracle::AvgColumn(t, "income").value(), 35000.0);
  EXPECT_FALSE(oracle::AvgColumn(Table{t.schema()}, "income").ok());
}

}  // namespace
}  // namespace mde::table
