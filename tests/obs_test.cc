#include <gtest/gtest.h>

#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/plan.h"
#include "table/vec_ops.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

using obs::Registry;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Metrics: concurrent correctness (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, ConcurrentCounterHammeringIsExact) {
  obs::Counter* c = Registry::Global().counter("test.hammer_counter");
  const uint64_t before = c->Value();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c->Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value() - before, kThreads * kPerThread);
}

TEST(ObsMetricsTest, ConcurrentHistogramHammeringIsExact) {
  obs::Histogram* h = Registry::Global().histogram(
      "test.hammer_histogram", {1.0, 10.0, 100.0});
  // Deltas from a snapshot, so the test holds under --gtest_repeat.
  const uint64_t before = h->Count();
  const std::vector<uint64_t> buckets_before = h->BucketCounts();
  const double sum_before = h->Sum();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < kPerThread; ++i) {
        h->Observe(static_cast<double>(i % 4) * 50.0);  // 0, 50, 100, 150
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h->Count() - before, uint64_t{kThreads * kPerThread});
  // 0 -> bucket[0] (<=1), 50 -> bucket[2] (<=100), 100 -> bucket[2],
  // 150 -> bucket[3] (+inf). Per thread: 1250 each of the four values.
  const std::vector<uint64_t> buckets = h->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  ASSERT_EQ(buckets_before.size(), 4u);
  EXPECT_EQ(buckets[0] - buckets_before[0], uint64_t{kThreads * 1250});
  EXPECT_EQ(buckets[1] - buckets_before[1], 0u);
  EXPECT_EQ(buckets[2] - buckets_before[2], uint64_t{kThreads * 2500});
  EXPECT_EQ(buckets[3] - buckets_before[3], uint64_t{kThreads * 1250});
  const double sum = static_cast<double>(kThreads) * 1250.0 * (50 + 100 + 150);
  EXPECT_DOUBLE_EQ(h->Sum() - sum_before, sum);
}

TEST(ObsMetricsTest, GaugeHoldsLastWrite) {
  obs::Gauge* g = Registry::Global().gauge("test.gauge");
  g->Set(3.25);
  EXPECT_DOUBLE_EQ(g->Value(), 3.25);
  g->Set(-7.5);
  EXPECT_DOUBLE_EQ(g->Value(), -7.5);
}

TEST(ObsMetricsTest, RegistryReturnsStablePointersAndSnapshots) {
  obs::Counter* a = Registry::Global().counter("test.stable");
  obs::Counter* b = Registry::Global().counter("test.stable");
  EXPECT_EQ(a, b);
  a->Add(5);
  bool found = false;
  for (const auto& m : Registry::Global().Snapshot()) {
    if (m.name == "test.stable") {
      found = true;
      EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kCounter);
      EXPECT_GE(m.value, 5.0);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(Registry::Global().TextDump().find("test.stable"),
            std::string::npos);
}

/// Enables tracing for one test body and restores the disabled default.
class ScopedTracing {
 public:
  ScopedTracing() {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  ~ScopedTracing() {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

// The next block of metric/trace tests asserts the side effects of the
// MDE_OBS_* / MDE_TRACE_SPAN macros.

TEST(ObsMetricsTest, EngineCountersPopulateFromVecKernels) {
  table::Table t{table::Schema(
      {{"id", table::DataType::kInt64}, {"x", table::DataType::kDouble}})};
  for (int64_t i = 0; i < 100; ++i) {
    t.Append({table::Value(i), table::Value(static_cast<double>(i))});
  }
  obs::Counter* in = Registry::Global().counter("vec.filter.rows_in");
  obs::Counter* out = Registry::Global().counter("vec.filter.rows_out");
  const uint64_t in_before = in->Value();
  const uint64_t out_before = out->Value();
  auto cols = t.ToColumnar().value();
  auto sel = table::VecFilter(*cols, nullptr, "x", table::CmpOp::kLt,
                              table::Value(50.0), nullptr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(in->Value() - in_before, 100u);
  EXPECT_EQ(out->Value() - out_before, 50u);
}

// ---------------------------------------------------------------------------
// Tracing: span nesting, ring behavior, export formats.
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Clear();
  ASSERT_FALSE(Tracer::Global().enabled());
  {
    MDE_TRACE_SPAN("test.should_not_appear");
  }
  EXPECT_TRUE(Tracer::Global().Collect().empty());
}

TEST(ObsTraceTest, SpanNestingDepthAndContainment) {
  ScopedTracing tracing;
  {
    MDE_TRACE_SPAN("test.outer");
    {
      MDE_TRACE_SPAN("test.inner");
    }
  }
  const std::vector<obs::TraceEvent> events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 2u);
  // Collect sorts by start time: outer opened first.
  const obs::TraceEvent& outer = events[0];
  const obs::TraceEvent& inner = events[1];
  EXPECT_STREQ(outer.name, "test.outer");
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(outer.tid, inner.tid);
  // Temporal containment: inner lies within outer.
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
}

TEST(ObsTraceTest, ConcurrentSpansLandInDistinctThreadBuffers) {
  ScopedTracing tracing;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        MDE_TRACE_SPAN("test.mt_span");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<obs::TraceEvent> events = Tracer::Global().Collect();
  EXPECT_EQ(events.size(), size_t{kThreads * kSpansPerThread});
}

TEST(ObsTraceTest, RingKeepsNewestEventsOnOverflow) {
  ScopedTracing tracing;
  const uint64_t dropped_before = Tracer::Global().dropped();
  for (size_t i = 0; i < Tracer::kRingCapacity + 100; ++i) {
    MDE_TRACE_SPAN("test.overflow");
  }
  const std::vector<obs::TraceEvent> events = Tracer::Global().Collect();
  EXPECT_EQ(events.size(), Tracer::kRingCapacity);
  EXPECT_GE(Tracer::Global().dropped() - dropped_before, 100u);
  // Retained events are the newest: strictly increasing start times, and
  // the last event closed after every retained start.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  ScopedTracing tracing;
  {
    MDE_TRACE_SPAN("test.json_span");
  }
  const std::string json = Tracer::Global().ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test.json_span"), std::string::npos);
  // Valid even when empty.
  Tracer::Global().Clear();
  const std::string empty = Tracer::Global().ChromeTraceJson();
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos);
}

/// The "X" and flow events of a Chrome trace (the metadata lanes dropped),
/// with lane tids renumbered by first appearance: tids are assigned per
/// recording thread and are the only span-event field that varies by run.
std::string SpanAndFlowEvents(const std::string& json) {
  const size_t begin =
      json.rfind("{\"name\":\"", json.find("\"cat\":\"mde\""));
  const size_t end = json.rfind("],\"displayTimeUnit\"");
  const std::string events = json.substr(begin, end - begin);
  static const std::regex tid_re("\"tid\":([0-9]+)");
  std::map<std::string, int> lanes;
  std::string out;
  auto last = events.cbegin();
  for (std::sregex_iterator it(events.begin(), events.end(), tid_re), stop;
       it != stop; ++it) {
    const int lane =
        lanes.emplace((*it)[1].str(), static_cast<int>(lanes.size()))
            .first->second;
    out.append(last, (*it)[0].first);
    out += "\"tid\":T" + std::to_string(lane);
    last = (*it)[0].second;
  }
  out.append(last, events.cend());
  return out;
}

TEST(ObsTraceTest, ChromeSpanAndFlowEventsGolden) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Record("golden.root", 1000, 9000, 0, 42, 100, 0);
  tracer.Record("golden.inner", 2000, 1500, 1, 42, 101, 100);
  tracer.Record("golden.untraced", 2500, 250, 1);
  // Two other threads, alive at once so each records on its own lane: a
  // child of the root (arrow starts at its open time) and a child of the
  // inner span that opens after its parent closed (arrow start clamped to
  // the parent's end).
  std::thread([&tracer] {
    tracer.Record("golden.\"stolen\"\\", 3000, 2000, 0, 42, 102, 100);
    std::thread([&tracer] {
      tracer.Record("golden.late", 12000, 500, 0, 42, 103, 101);
    }).join();
  }).join();
  const std::string json = tracer.ChromeTraceJson();
  tracer.Clear();
  EXPECT_EQ(
      SpanAndFlowEvents(json),
      "{\"name\":\"golden.root\",\"cat\":\"mde\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":T0,\"ts\":0,\"dur\":9,\"args\":{\"trace_id\":42,"
      "\"span_id\":100,\"parent_span_id\":0}},"
      "{\"name\":\"golden.inner\",\"cat\":\"mde\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":T0,\"ts\":1,\"dur\":1.5,\"args\":{\"trace_id\":42,"
      "\"span_id\":101,\"parent_span_id\":100}},"
      "{\"name\":\"golden.untraced\",\"cat\":\"mde\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":T0,\"ts\":1.5,\"dur\":0.25},"
      "{\"name\":\"golden.\\\"stolen\\\"\\\\\",\"cat\":\"mde\",\"ph\":\"X\","
      "\"pid\":0,\"tid\":T1,\"ts\":2,\"dur\":2,\"args\":{\"trace_id\":42,"
      "\"span_id\":102,\"parent_span_id\":100}},"
      "{\"name\":\"golden.late\",\"cat\":\"mde\",\"ph\":\"X\",\"pid\":0,"
      "\"tid\":T2,\"ts\":11,\"dur\":0.5,\"args\":{\"trace_id\":42,"
      "\"span_id\":103,\"parent_span_id\":101}},"
      "{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"s\",\"id\":102,\"pid\":0,"
      "\"tid\":T0,\"ts\":2},"
      "{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"f\",\"bp\":\"e\","
      "\"id\":102,\"pid\":0,\"tid\":T1,\"ts\":2},"
      "{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"s\",\"id\":103,\"pid\":0,"
      "\"tid\":T0,\"ts\":2.5},"
      "{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"f\",\"bp\":\"e\","
      "\"id\":103,\"pid\":0,\"tid\":T2,\"ts\":11}");
}

TEST(ObsTraceTest, FlameSummarySeparatesSelfFromInclusive) {
  ScopedTracing tracing;
  {
    MDE_TRACE_SPAN("test.flame_outer");
    MDE_TRACE_SPAN("test.flame_inner");
  }
  const std::string flame = Tracer::Global().FlameSummary();
  EXPECT_NE(flame.find("test.flame_outer"), std::string::npos);
  EXPECT_NE(flame.find("test.flame_inner"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ThreadPool worker stats.
// ---------------------------------------------------------------------------

TEST(ObsPoolTest, WorkerStatsCountExecutedTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.WaitAll();
  EXPECT_EQ(ran.load(), 50);
  const auto stats = pool.WorkerStatsSnapshot();
  ASSERT_EQ(stats.size(), 3u);
  uint64_t total = 0;
  for (const auto& w : stats) total += w.tasks_executed;
  EXPECT_EQ(total, 50u);
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE.
// ---------------------------------------------------------------------------

table::Table OrdersTable() {
  table::Table t{table::Schema({{"oid", table::DataType::kInt64},
                                {"cid", table::DataType::kInt64},
                                {"amount", table::DataType::kDouble}})};
  for (int64_t o = 0; o < 1000; ++o) {
    t.Append({table::Value(o), table::Value(o % 100),
              table::Value(10.0 + static_cast<double>(o % 7))});
  }
  return t;
}

table::Table CustomersTable() {
  table::Table t{table::Schema({{"cid", table::DataType::kInt64},
                                {"region", table::DataType::kString}})};
  for (int64_t c = 0; c < 100; ++c) {
    t.Append({table::Value(c), table::Value(c % 4 == 0 ? "EAST" : "WEST")});
  }
  return t;
}

/// Replaces the run-dependent values (wall/self times, cardinality
/// estimates — which shift as catalog feedback accumulates) so the rest of
/// the output is golden-comparable.
std::string NormalizeTimes(const std::string& s) {
  std::string out = std::regex_replace(
      s, std::regex("(time|self)=[0-9.]+[a-z]+"), "$1=X");
  return std::regex_replace(out, std::regex("est=[0-9]+"), "est=E");
}

TEST(ObsExplainAnalyzeTest, ThreeNodePlanReportsRowsAndTime) {
  table::Table orders = OrdersTable();
  table::PlanPtr plan = table::PlanNode::Project(
      table::PlanNode::Filter(table::PlanNode::Scan(&orders, "orders"),
                              {{"amount", table::CmpOp::kGt,
                                table::Value(14.0)}}),
      {"oid", "amount"});
  table::ExecutionStats stats;
  auto result = table::ExecutePlan(plan, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(stats.nodes.size(), 3u);  // Project, Filter, Scan (pre-order)
  // Inclusive times nest: parent >= child.
  EXPECT_GE(stats.nodes[0].wall_ns, stats.nodes[1].wall_ns);
  EXPECT_GE(stats.nodes[1].wall_ns, stats.nodes[2].wall_ns);
  EXPECT_EQ(stats.nodes[2].rows_out, 1000u);                     // Scan
  EXPECT_EQ(stats.nodes[1].rows_out, result.value().num_rows());  // Filter
  EXPECT_EQ(stats.nodes[0].rows_out, result.value().num_rows());  // Project

  const std::string analyzed =
      NormalizeTimes(table::ExplainAnalyze(plan, stats));
  const std::string expected =
      "Project(oid, amount) [rows=" +
      std::to_string(result.value().num_rows()) +
      " est=E time=X self=X chunks=1 vec]\n"
      "  Filter(amount > 14.000000) [rows=" +
      std::to_string(result.value().num_rows()) +
      " est=E time=X self=X chunks=1 vec]\n"
      "    Scan(orders) [rows=1000 est=E time=X self=X chunks=1 vec]\n";
  EXPECT_EQ(analyzed, expected);
}

TEST(ObsExplainAnalyzeTest, JoinPlanProfilesAllNodes) {
  table::Table orders = OrdersTable();
  table::Table customers = CustomersTable();
  table::PlanPtr plan = table::PlanNode::Filter(
      table::PlanNode::Join(table::PlanNode::Scan(&orders, "orders"),
                            table::PlanNode::Scan(&customers, "customers"),
                            {"cid"}, {"cid"}),
      {{"region", table::CmpOp::kEq, table::Value("EAST")}});
  table::ExecutionStats stats;
  auto result = table::ExecutePlan(plan, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(stats.nodes.size(), 4u);  // Filter, Join, Scan, Scan
  EXPECT_EQ(stats.nodes[2].rows_out, 1000u);  // left scan (pre-order)
  EXPECT_EQ(stats.nodes[3].rows_out, 100u);   // right scan
  EXPECT_EQ(stats.nodes[1].rows_out, 1000u);  // join: every order matches
  const std::string analyzed = table::ExplainAnalyze(plan, stats);
  EXPECT_EQ(analyzed.find("[no profile]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: obs enabled must not perturb engine output across pools.
// ---------------------------------------------------------------------------

TEST(ObsDeterminismTest, TracedPlanExecutionIsBitIdenticalAcrossPools) {
  ScopedTracing tracing;
  table::Table orders = OrdersTable();
  table::Table customers = CustomersTable();
  table::PlanPtr plan = table::PlanNode::Filter(
      table::PlanNode::Join(table::PlanNode::Scan(&orders, "orders"),
                            table::PlanNode::Scan(&customers, "customers"),
                            {"cid"}, {"cid"}),
      {{"region", table::CmpOp::kEq, table::Value("EAST")},
       {"amount", table::CmpOp::kGt, table::Value(12.0)}});

  table::SetVecPool(nullptr);  // serial
  table::ExecutionStats serial_stats;
  const std::string serial =
      table::ExecutePlan(plan, &serial_stats).value().ToString(5000);

  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    table::SetVecPool(&pool);
    table::ExecutionStats stats;
    auto result = table::ExecutePlan(plan, &stats);
    table::SetVecPool(nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().ToString(5000), serial)
        << "threads=" << threads;
    ASSERT_EQ(stats.nodes.size(), serial_stats.nodes.size());
    for (size_t i = 0; i < stats.nodes.size(); ++i) {
      EXPECT_EQ(stats.nodes[i].rows_out, serial_stats.nodes[i].rows_out);
    }
  }
}

}  // namespace
}  // namespace mde
