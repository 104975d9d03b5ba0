#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/fault.h"
#include "mcdb/bundle.h"
#include "mcdb/mcdb.h"
#include "mcdb/vg_function.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "simsql/simsql.h"
#include "util/distributions.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

double CounterValue(const std::string& name) {
  for (const auto& m : obs::Registry::Global().Snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The paper's SBP stochastic table over `patients` outer rows (same shape
/// as the mcdb tests) — a real engine workload whose generation fans out
/// over a pool.
mcdb::MonteCarloDb MakeSbpDb(size_t patients) {
  mcdb::MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  EXPECT_TRUE(db.AddTable("PATIENTS", std::move(p)).ok());
  Table param{
      Schema({{"MEAN", DataType::kDouble}, {"STD", DataType::kDouble}})};
  param.Append({Value(120.0), Value(9.0)});
  EXPECT_TRUE(db.AddTable("SBP_PARAM", std::move(param)).ok());

  mcdb::StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<mcdb::NormalVg>();
  spec.param_binder = [](const Row&, const mcdb::DatabaseInstance& det)
      -> Result<Row> {
    const Table& param = det.at("SBP_PARAM");
    return Row{param.row(0)[0], param.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  EXPECT_TRUE(db.AddStochasticTable(std::move(spec)).ok());
  return db;
}

simsql::ChainTableSpec MakeWalkerSpec(size_t walkers) {
  simsql::ChainTableSpec spec;
  spec.name = "WALKERS";
  spec.init = [walkers](const simsql::DatabaseState&,
                        Rng&) -> Result<Table> {
    Table t{Schema({{"id", DataType::kInt64}, {"pos", DataType::kDouble}})};
    for (size_t i = 0; i < walkers; ++i) {
      t.Append({Value(static_cast<int64_t>(i)), Value(0.0)});
    }
    return t;
  };
  spec.transition = [](const simsql::DatabaseState& prev,
                       const simsql::DatabaseState&,
                       Rng& rng) -> Result<Table> {
    const Table& old = prev.at("WALKERS");
    Table t(old.schema());
    for (const Row& r : old.rows()) {
      t.Append({r[0], Value(r[1].AsDouble() + SampleStandardNormal(rng))});
    }
    return t;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// Context propagation across the pool.
// ---------------------------------------------------------------------------

TEST(ObsContextTest, InactiveByDefault) {
  const obs::Context& ctx = obs::CurrentContext();
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.stats, nullptr);
}

TEST(ObsContextTest, QueryScopeInstallsAndRestores) {
  {
    MDE_OBS_QUERY_SCOPE("test.scope", 0x1234u);
    const obs::Context& ctx = obs::CurrentContext();
    EXPECT_TRUE(ctx.active());
    EXPECT_EQ(ctx.fingerprint, 0x1234u);
    ASSERT_NE(ctx.stats, nullptr);
    EXPECT_STREQ(ctx.tag, "test.scope");
  }
  EXPECT_FALSE(obs::CurrentContext().active());
}

TEST(ObsContextTest, KillSwitchMakesQueryScopeNoOp) {
  ASSERT_TRUE(obs::AttributionEnabled());
  obs::SetAttributionEnabled(false);
  {
    MDE_OBS_QUERY_SCOPE("test.killed", 0x5678u);
    // No context installed: downstream attr adds and context-gated spans
    // all take their inactive fast path.
    EXPECT_FALSE(obs::CurrentContext().active());
    EXPECT_EQ(obs::CurrentContext().stats, nullptr);
  }
  obs::SetAttributionEnabled(true);
  {
    MDE_OBS_QUERY_SCOPE("test.revived", 0x5678u);
    EXPECT_TRUE(obs::CurrentContext().active());
  }
  EXPECT_FALSE(obs::CurrentContext().active());
}

TEST(ObsContextTest, NestedScopeAdoptsOuterQuery) {
  obs::QueryScope outer("outer.query", 1u);
  const uint64_t outer_trace = obs::CurrentContext().trace_id;
  obs::QueryStats* outer_stats = obs::CurrentContext().stats;
  {
    obs::QueryScope inner("inner.query", 2u);
    EXPECT_TRUE(inner.adopted());
    // The inner engine call attributes to the OUTER query.
    EXPECT_EQ(obs::CurrentContext().trace_id, outer_trace);
    EXPECT_EQ(obs::CurrentContext().stats, outer_stats);
  }
  EXPECT_EQ(obs::CurrentContext().trace_id, outer_trace);
}

TEST(ObsContextTest, ContextPropagatesThroughSubmit) {
  ThreadPool pool(4);
  MDE_OBS_QUERY_SCOPE("test.submit", 0x77u);
  const uint64_t root_trace = obs::CurrentContext().trace_id;
  obs::QueryStats* root_stats = obs::CurrentContext().stats;
  std::atomic<uint64_t> wrong_trace{0};
  std::atomic<uint64_t> wrong_stats{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&] {
      const obs::Context& ctx = obs::CurrentContext();
      if (ctx.trace_id != root_trace) ++wrong_trace;
      if (ctx.stats != root_stats) ++wrong_stats;
    });
  }
  pool.WaitAll();
  EXPECT_EQ(wrong_trace.load(), 0u);
  EXPECT_EQ(wrong_stats.load(), 0u);
}

TEST(ObsContextTest, ContextPropagatesThroughNestedParallelFor) {
  ThreadPool pool(4);
  MDE_OBS_QUERY_SCOPE("test.nested", 0x99u);
  const uint64_t root_trace = obs::CurrentContext().trace_id;
  std::atomic<uint64_t> wrong{0};
  pool.ParallelFor(8, 1, [&](size_t) {
    if (obs::CurrentContext().trace_id != root_trace) ++wrong;
    // Nested fan-out from inside a pool task (help-run path): the context
    // must survive the second hop too.
    pool.ParallelFor(8, 1, [&](size_t) {
      if (obs::CurrentContext().trace_id != root_trace) ++wrong;
    });
  });
  EXPECT_EQ(wrong.load(), 0u);
}

TEST(ObsContextTest, TaskCountsAttributed) {
  obs::AttributionTable::Global().Reset();
  ThreadPool pool(2);
  obs::QueryStats* stats = nullptr;
  {
    MDE_OBS_QUERY_SCOPE("test.tasks", 0xabcu);
    stats = obs::CurrentContext().stats;
    for (int i = 0; i < 10; ++i) pool.Submit([] {});
    pool.WaitAll();
  }
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->tasks.load(), 10u);
}

// ---------------------------------------------------------------------------
// Span parentage across the pool (one connected flame per query).
// ---------------------------------------------------------------------------

TEST(ObsContextTest, SpanParentageAndContainmentAcrossPool) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  ThreadPool pool(4);

  bool cross_thread_seen = false;
  // The cross-thread assertion needs a worker to actually pick up a chunk;
  // retry the (cheap) fan-out rather than tolerate a scheduling flake.
  for (int attempt = 0; attempt < 5 && !cross_thread_seen; ++attempt) {
    tracer.Clear();
    {
      MDE_OBS_QUERY_SCOPE("test.flame", 0x5eedu);
      MDE_TRACE_SPAN("test.root");
      pool.ParallelFor(64, 1, [&](size_t) {
        MDE_TRACE_SPAN("test.child");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
    const std::vector<obs::TraceEvent> events = tracer.Collect();
    const obs::TraceEvent* root = nullptr;
    std::map<uint64_t, const obs::TraceEvent*> by_span;
    for (const auto& e : events) {
      if (std::strcmp(e.name, "test.root") == 0) root = &e;
      if (e.span_id != 0) by_span[e.span_id] = &e;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_NE(root->trace_id, 0u);
    EXPECT_NE(root->span_id, 0u);
    size_t children = 0;
    for (const auto& e : events) {
      if (std::strcmp(e.name, "test.child") != 0) continue;
      ++children;
      // Same query, contained in the root's interval, and connected: the
      // parent chain (which may pass through the pool's own spans, e.g.
      // pool.parallel_for) must resolve event-by-event up to the root —
      // regardless of which worker (or the caller) ran the chunk.
      EXPECT_EQ(e.trace_id, root->trace_id);
      EXPECT_GE(e.ts_ns, root->ts_ns);
      EXPECT_LE(e.ts_ns + e.dur_ns, root->ts_ns + root->dur_ns);
      uint64_t parent = e.parent_span_id;
      int hops = 0;
      while (parent != root->span_id && hops < 10) {
        const auto it = by_span.find(parent);
        ASSERT_NE(it, by_span.end())
            << "dangling parent_span_id " << parent;
        parent = it->second->parent_span_id;
        ++hops;
      }
      EXPECT_EQ(parent, root->span_id);
      if (e.tid != root->tid) cross_thread_seen = true;
    }
    EXPECT_EQ(children, 64u);
  }
  EXPECT_TRUE(cross_thread_seen);
  tracer.Disable();
  tracer.Clear();
}

TEST(ObsContextTest, ChromeTraceHasThreadMetadataAndFlows) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  tracer.Clear();
  obs::SetCurrentThreadName("driver");
  ThreadPool pool(2);
  {
    MDE_OBS_QUERY_SCOPE("test.chrome", 0xc2u);
    MDE_TRACE_SPAN("test.root");
    pool.ParallelFor(32, 1, [&](size_t) {
      MDE_TRACE_SPAN("test.child");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  const std::string json = tracer.ChromeTraceJson();
  tracer.Disable();
  tracer.Clear();
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
  EXPECT_NE(json.find("worker-1"), std::string::npos);
  EXPECT_NE(json.find("driver"), std::string::npos);
  // Span ids ride in args on every in-query slice.
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: attribution + tracing never change engine output.
// ---------------------------------------------------------------------------

TEST(ObsContextTest, BundleGenerationBitIdenticalAcrossThreadCounts) {
  obs::Tracer::Global().Enable();
  mcdb::MonteCarloDb db = MakeSbpDb(500);
  constexpr size_t kReps = 64;

  std::vector<std::vector<double>> sums;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                         kReps, /*seed=*/13, &pool);
    ASSERT_TRUE(bundles.ok());
    auto agg = bundles.value().AggregateSum("SBP");
    ASSERT_TRUE(agg.ok());
    sums.push_back(std::move(agg).value());
  }
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();

  ASSERT_EQ(sums[0].size(), kReps);
  // Bitwise, not approximate: memcmp over the IEEE-754 payloads.
  EXPECT_EQ(std::memcmp(sums[0].data(), sums[1].data(),
                        kReps * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(sums[0].data(), sums[2].data(),
                        kReps * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// Attribution table: reconciliation and bounds.
// ---------------------------------------------------------------------------

TEST(ObsContextTest, CpuNsReconcilesWithGlobalCounter) {
  obs::AttributionTable::Global().Reset();
  const double before = CounterValue("attr.cpu_ns");
  {
    ThreadPool pool(4);
    mcdb::MonteCarloDb db = MakeSbpDb(400);
    auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                         32, /*seed=*/7, &pool);
    ASSERT_TRUE(bundles.ok());
    MDE_OBS_QUERY_SCOPE("test.extra", 0xfeedu);
    pool.ParallelFor(128, 1, [](size_t) {
      volatile double x = 0.0;
      for (int k = 0; k < 500; ++k) x = x + static_cast<double>(k);
      (void)x;
    });
  }
  const double after = CounterValue("attr.cpu_ns");
  uint64_t table_sum = 0;
  for (const auto& row : obs::AttributionTable::Global().Snapshot()) {
    table_sum += row.cpu_ns;
  }
  // The attribution increments are placed at exactly the same sites as the
  // global counter's, so after a Reset the two agree EXACTLY — far inside
  // the ±1% reconciliation budget.
  EXPECT_GT(table_sum, 0u);
  EXPECT_EQ(static_cast<double>(table_sum), after - before);
}

TEST(ObsContextTest, AttributionRowsCarryEngineResources) {
  obs::AttributionTable::Global().Reset();
  ThreadPool pool(2);
  mcdb::MonteCarloDb db = MakeSbpDb(600);
  constexpr size_t kReps = 16;
  auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                       kReps, /*seed=*/3, &pool);
  ASSERT_TRUE(bundles.ok());
  // The chunk-helper tasks have finished their chunks by return, but their
  // ContextGuards (which close out the per-task accounting) may still be
  // unwinding; WaitAll joins them before the snapshot.
  pool.WaitAll();
  const auto rows = obs::AttributionTable::Global().Snapshot();
  const obs::AttributionTable::Row* gen = nullptr;
  for (const auto& r : rows) {
    if (r.tag == "mcdb.generate") gen = &r;
  }
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->vg_draws, 600u * kReps);
  EXPECT_GT(gen->bundle_bytes, 0u);
  EXPECT_GT(gen->tasks, 0u);
  EXPECT_GT(gen->cpu_ns, 0u);
}

TEST(ObsContextTest, AttributionTableBoundedWithEviction) {
  obs::AttributionTable& table = obs::AttributionTable::Global();
  table.Reset();
  const uint64_t table_evictions_before = table.evictions();
  const double evictions_before = CounterValue("attr.evictions");
  for (uint64_t fp = 1; fp <= 300; ++fp) {
    obs::QueryScope scope("test.flood", fp);
  }
  EXPECT_EQ(table.size(), obs::AttributionTable::kMaxEntries);
  EXPECT_EQ(table.evictions() - table_evictions_before,
            300 - obs::AttributionTable::kMaxEntries);
  EXPECT_EQ(CounterValue("attr.evictions") - evictions_before,
            static_cast<double>(300 - obs::AttributionTable::kMaxEntries));
  // Re-acquiring a surviving fingerprint reuses its row, no eviction.
  const uint64_t ev = table.evictions();
  obs::QueryScope again("test.flood", 300);
  EXPECT_EQ(table.evictions(), ev);
}

TEST(ObsContextTest, MemoizedSlotReacquiredAfterAnotherThreadsFlood) {
  obs::AttributionTable& table = obs::AttributionTable::Global();
  table.Reset();
  const auto row_for = [&table](uint64_t fp) {
    for (const auto& row : table.Snapshot()) {
      if (row.fingerprint == fp) return row;
    }
    return obs::AttributionTable::Row{};
  };
  const auto flood = [] {
    for (uint64_t fp = 1; fp <= 300; ++fp) {
      obs::QueryScope scope("test.flood", fp);
    }
  };
  // This thread memoizes 0xa11ce; a second acquire is a memo hit.
  constexpr uint64_t kFp = 0xa11ce;
  obs::QueryStats* first = table.Acquire(kFp, "test.memo");
  const uint64_t evictions = table.evictions();
  EXPECT_EQ(table.Acquire(kFp, "test.memo"), first);
  EXPECT_EQ(table.evictions(), evictions);
  {
    obs::QueryScope scope("test.memo", kFp);
    EXPECT_EQ(obs::CurrentContext().stats, first);
    MDE_OBS_ATTR_ADD(rows_in, 1);
  }
  EXPECT_EQ(row_for(kFp).rows_in, 1u);

  // Another thread's flood evicts it and recycles its slot.
  std::thread(flood).join();
  EXPECT_EQ(row_for(kFp).fingerprint, 0u) << "flood should evict 0xa11ce";

  // The stale memo must not hand back the recycled slot.
  {
    obs::QueryScope scope("test.memo", kFp);
    MDE_OBS_ATTR_ADD(rows_in, 5);
  }
  EXPECT_EQ(row_for(kFp).rows_in, 5u);
  EXPECT_EQ(row_for(kFp).tag, "test.memo");
  uint64_t rows_in = 0;
  for (const auto& row : table.Snapshot()) rows_in += row.rows_in;
  EXPECT_EQ(rows_in, 5u) << "an addition landed on a flood row";

  // Concurrently: readers re-acquire their own fingerprints through the
  // memo while a flooder evicts them (run under TSan in CI). Once the flood
  // is over, each re-acquire must land on its own keyed row.
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const uint64_t fp = 0xbee0 + static_cast<uint64_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        obs::QueryScope scope("test.memo", fp);
        MDE_OBS_ATTR_ADD(rows_in, 1);
      }
      obs::QueryScope scope("test.memo", fp);
      MDE_OBS_ATTR_ADD(rows_out, 1000 + r);
    });
  }
  std::thread flooder([&] {
    for (int round = 0; round < 3; ++round) flood();
    stop.store(true, std::memory_order_release);
  });
  flooder.join();
  for (auto& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) {
    const auto row = row_for(0xbee0 + static_cast<uint64_t>(r));
    EXPECT_EQ(row.tag, "test.memo") << "reader " << r;
    EXPECT_EQ(row.rows_out, 1000u + static_cast<uint64_t>(r))
        << "reader " << r;
  }
}

// ---------------------------------------------------------------------------
// Worker stats and export surfaces.
// ---------------------------------------------------------------------------

TEST(ObsContextTest, WorkerQueueDepthSnapshot) {
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&] {
      ++entered;
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (entered.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Both workers are parked in the gate tasks; these six can only queue.
  for (int i = 0; i < 6; ++i) pool.Submit([] {});
  auto stats = pool.WorkerStatsSnapshot();
  ASSERT_EQ(stats.size(), 2u);
  uint64_t queued = 0;
  for (const auto& s : stats) queued += s.queue_depth;
  EXPECT_EQ(queued, 6u);
  release.store(true);
  pool.WaitAll();
  stats = pool.WorkerStatsSnapshot();
  queued = 0;
  for (const auto& s : stats) queued += s.queue_depth;
  EXPECT_EQ(queued, 0u);
}

TEST(ObsContextTest, PrometheusExportsQueueDepthAndAttribution) {
  obs::AttributionTable::Global().Reset();
  ThreadPool pool(2);
  {
    MDE_OBS_QUERY_SCOPE("test.prom", 0xbeefu);
    pool.ParallelFor(32, 1, [](size_t) {});
  }
  // The no-arg overload runs the pool's sample hook (publishing the
  // per-worker queue_depth gauges) and appends the labeled attribution
  // families.
  const std::string text = obs::PrometheusText();
  EXPECT_NE(text.find("pool_worker_0_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("pool_worker_1_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("mde_query_cpu_ns{query=\"0x"), std::string::npos);
  EXPECT_NE(text.find("tag=\"test.prom\""), std::string::npos);
  // The snapshot overload must stay label-free (golden-format contract).
  const std::string plain =
      obs::PrometheusText(obs::Registry::Global().Snapshot());
  EXPECT_EQ(plain.find("mde_query_cpu_ns"), std::string::npos);
}

TEST(ObsContextTest, SamplerJsonlCarriesQueriesAndReportRendersThem) {
  obs::AttributionTable::Global().Reset();
  const std::string path = ::testing::TempDir() + "/obs_ctx_metrics.jsonl";
  std::remove(path.c_str());
  {
    obs::SamplerOptions opts;
    opts.path = path;
    opts.period = std::chrono::milliseconds(500);
    obs::Sampler sampler(opts);
    ASSERT_TRUE(sampler.ok());
    ThreadPool pool(2);
    mcdb::MonteCarloDb db = MakeSbpDb(200);
    auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                         16, /*seed=*/5, &pool);
    ASSERT_TRUE(bundles.ok());
  }  // Sampler dtor writes the final record.
  const std::string jsonl = ReadFile(path);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_NE(jsonl.find("\"queries\":{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tag\":\"mcdb.generate\""), std::string::npos);
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderRunReport("", jsonl, obs::RunReportOptions{},
                                   &report, &error))
      << error;
  EXPECT_NE(report.find("Per-query attribution"), std::string::npos);
  EXPECT_NE(report.find("mcdb.generate"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(ObsContextTest, FlightDumpParsesViaReport) {
  const std::string path = ::testing::TempDir() + "/obs_ctx_flight.json";
  std::remove(path.c_str());
  {
    MDE_OBS_QUERY_SCOPE("test.flight", 0xf11e11u);
    MDE_TRACE_SPAN("test.flight_span");
    ASSERT_TRUE(
        obs::FlightRecorder::Global().DumpToFile(path, "unit-test"));
  }
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderFlightReport(json, obs::RunReportOptions{}, &report,
                                      &error))
      << error;
  EXPECT_NE(report.find("unit-test"), std::string::npos);
  EXPECT_NE(report.find("test.flight_span"), std::string::npos);
  EXPECT_NE(report.find("test.flight"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsContextTest, FlightContextsAndSpansGolden) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  rec.Reset();
  obs::SetCurrentThreadName("golden-driver");
  obs::Context ctx;
  ctx.trace_id = 7001;
  ctx.fingerprint = 0xabcdefu;
  ctx.tag = "golden.\"tag\"";
  const obs::Context prev = obs::internal::Install(ctx);
  rec.RecordSpanOpen("golden.b", 2000, 7001, 12, 11);
  rec.RecordSpanOpen("golden.a", 1000, 7001, 11, 0);
  // A second, exited thread: its context is cleared at exit, its spans stay
  // and interleave with ours by timestamp.
  std::thread([&rec] {
    obs::SetCurrentThreadName("golden-\"worker\"\\");
    rec.RecordSpanOpen("golden.w", 1500, 7001, 13, 11);
    rec.RecordSpanOpen("golden.\"q\"", 2500, 0, 14, 0);
  }).join();
  const std::string doc = rec.RenderJson("golden");
  obs::internal::Install(prev);
  obs::SetCurrentThreadName("driver");
  rec.Reset();
  const size_t begin = doc.find("\"contexts\":");
  const size_t end = doc.find(",\"counters\":");
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(
      doc.substr(begin, end - begin),
      "\"contexts\":[{\"thread\":\"golden-driver\",\"trace_id\":7001,"
      "\"fingerprint\":\"0xabcdef\",\"tag\":\"golden.\\\"tag\\\"\"}],"
      "\"spans\":["
      "{\"thread\":\"golden-driver\",\"name\":\"golden.a\",\"ts_ns\":1000,"
      "\"trace_id\":7001,\"span_id\":11,\"parent_span_id\":0},"
      "{\"thread\":\"golden-\\\"worker\\\"\\\\\",\"name\":\"golden.w\","
      "\"ts_ns\":1500,\"trace_id\":7001,\"span_id\":13,\"parent_span_id\":11},"
      "{\"thread\":\"golden-driver\",\"name\":\"golden.b\",\"ts_ns\":2000,"
      "\"trace_id\":7001,\"span_id\":12,\"parent_span_id\":11},"
      "{\"thread\":\"golden-\\\"worker\\\"\\\\\",\"name\":\"golden.\\\"q\\\"\","
      "\"ts_ns\":2500,\"trace_id\":0,\"span_id\":14,\"parent_span_id\":0}]");
}

TEST(ObsContextTest, FaultInjectedCrashLeavesParseableDump) {
  const std::string path = ::testing::TempDir() + "/obs_ctx_fault_flight.json";
  std::remove(path.c_str());
  ::setenv("MDE_FLIGHT_PATH", path.c_str(), 1);

  ckpt::FaultInjector::Config cfg;
  cfg.enabled = true;
  cfg.point = "simsql.version";
  cfg.fire_at_hit = 3;
  ckpt::FaultInjector::Global().Configure(cfg);

  simsql::MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(10)).ok());
  simsql::ChainRunner runner(db, /*steps=*/8, /*seed=*/21, /*rep=*/0);
  bool fired = false;
  try {
    while (!runner.Done()) {
      ASSERT_TRUE(runner.StepOnce().ok());
    }
  } catch (const ckpt::FaultInjected&) {
    fired = true;
  }
  ckpt::FaultInjector::Global().Configure(ckpt::FaultInjector::Config{});
  ::unsetenv("MDE_FLIGHT_PATH");
  ASSERT_TRUE(fired);

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderFlightReport(json, obs::RunReportOptions{}, &report,
                                      &error))
      << error;
  EXPECT_NE(report.find("fault:simsql.version"), std::string::npos);
  // The chain's query context was live at the fault site.
  EXPECT_NE(report.find("simsql.chain"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsContextTest, FlightDumpWithoutRegistrySectionsStillParses) {
  // The signal-path dump omits counters/gauges; the parser must treat them
  // as optional.
  const std::string json =
      "{\"flight\":{\"version\":1,\"reason\":\"signal:SIGSEGV\","
      "\"contexts\":[{\"thread\":\"driver\",\"trace_id\":7,"
      "\"fingerprint\":\"0xabc\",\"tag\":\"t\"}],"
      "\"spans\":[{\"thread\":\"driver\",\"name\":\"s\",\"ts_ns\":1,"
      "\"trace_id\":7,\"span_id\":8,\"parent_span_id\":0}]}}";
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderFlightReport(json, obs::RunReportOptions{}, &report,
                                      &error))
      << error;
  EXPECT_NE(report.find("signal:SIGSEGV"), std::string::npos);
  EXPECT_EQ(report.find("Counters at dump"), std::string::npos);
}

}  // namespace
}  // namespace mde
