#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcdb/bundle.h"
#include "mcdb/estimators.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/stat.h"
#include "simsql/simsql.h"
#include "smc/particle_filter.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

using obs::Registry;

// ---------------------------------------------------------------------------
// Statistical monitors vs brute force. The Welford accumulator and CLT
// half-width the monitors rely on is RunningStat (util/stats.h).
// ---------------------------------------------------------------------------

TEST(ObsStatTest, WelfordMatchesBruteForce) {
  Rng rng(7);
  std::vector<double> xs;
  RunningStat w;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 100.0 - 20.0;
    xs.push_back(x);
    w.Add(x);
  }
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double m2 = 0.0;
  for (double x : xs) m2 += (x - mean) * (x - mean);
  const double var = m2 / static_cast<double>(xs.size() - 1);
  EXPECT_EQ(w.count(), xs.size());
  EXPECT_NEAR(w.mean(), mean, 1e-9);
  EXPECT_NEAR(w.variance(), var, 1e-9);
  EXPECT_NEAR(w.std_error(), std::sqrt(var / 1000.0), 1e-12);
}

TEST(ObsStatTest, WelfordMergeEqualsSinglePass) {
  Rng rng(11);
  RunningStat all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = SampleStandardNormal(rng);
    all.Add(x);
    (i % 3 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(ObsStatTest, P2QuantileTracksExactQuantile) {
  for (const double p : {0.5, 0.9, 0.95}) {
    Rng rng(13);
    obs::P2Quantile sketch(p);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i) {
      const double x = SampleNormal(rng, 1.0, 3.0);
      xs.push_back(x);
      sketch.Add(x);
    }
    std::sort(xs.begin(), xs.end());
    const double exact =
        xs[static_cast<size_t>(p * static_cast<double>(xs.size() - 1))];
    // P² is an estimate; for 20k gaussian draws it lands well inside a
    // tenth of a standard deviation of the exact order statistic.
    EXPECT_NEAR(sketch.Value(), exact, 0.3) << "p=" << p;
    EXPECT_EQ(sketch.count(), 20000u);
  }
}

TEST(ObsStatTest, P2QuantileExactForSmallSamples) {
  obs::P2Quantile med(0.5);
  EXPECT_DOUBLE_EQ(med.Value(), 0.0);  // empty
  med.Add(3.0);
  EXPECT_DOUBLE_EQ(med.Value(), 3.0);
  med.Add(1.0);
  med.Add(2.0);
  EXPECT_DOUBLE_EQ(med.Value(), 2.0);  // exact median of {1,2,3}
}

TEST(ObsStatTest, P2QuantileTinyNExactFallback) {
  // The sketch needs 5 markers before the parabolic update is defined; for
  // n in {0,1,2,5} the value must be the EXACT interpolated quantile of
  // what was seen, for every p, in any insertion order.
  for (const double p : {0.05, 0.5, 0.95}) {
    obs::P2Quantile q(p);
    EXPECT_DOUBLE_EQ(q.Value(), 0.0) << "n=0 p=" << p;  // documented empty
    q.Add(7.0);
    EXPECT_DOUBLE_EQ(q.Value(), 7.0) << "n=1 p=" << p;
    q.Add(3.0);  // unsorted insertion
    // Exact two-point interpolation between sorted {3, 7}.
    EXPECT_DOUBLE_EQ(q.Value(), 3.0 + p * 4.0) << "n=2 p=" << p;
    q.Add(9.0);
    q.Add(1.0);
    q.Add(5.0);
    // n=5: markers are the sorted sample {1,3,5,7,9}; the estimate must
    // equal the exact rank-interpolated quantile.
    const double rank = p * 4.0;
    const auto lo = static_cast<size_t>(rank);
    const double sorted[5] = {1.0, 3.0, 5.0, 7.0, 9.0};
    const double exact =
        sorted[lo] +
        (rank - static_cast<double>(lo)) *
            (sorted[std::min<size_t>(lo + 1, 4)] - sorted[lo]);
    EXPECT_DOUBLE_EQ(q.Value(), exact) << "n=5 p=" << p;
  }
}

TEST(ObsStatTest, CiMonitorTinyNHasNoSpuriousPrecision) {
  RunningStat ci;
  // n = 0 and n = 1: no CLT bound exists. A zero half-width here would let
  // a one-draw cache entry satisfy ANY precision target.
  EXPECT_TRUE(std::isinf(ci.half_width()));
  ci.Add(42.0);
  EXPECT_EQ(ci.count(), 1u);
  EXPECT_TRUE(std::isinf(ci.half_width()));
  EXPECT_DOUBLE_EQ(ci.mean(), 42.0);
  // n = 2: first finite bound, and it matches the closed form.
  ci.Add(44.0);
  const double sd2 = std::sqrt(2.0);  // stddev of {42, 44}
  EXPECT_NEAR(ci.half_width(), 1.959964 * sd2 / std::sqrt(2.0), 1e-12);
  // n = 5 stays finite and shrinks vs n = 2 for same-scale data.
  ci.Add(43.0);
  ci.Add(42.5);
  ci.Add(43.5);
  EXPECT_EQ(ci.count(), 5u);
  EXPECT_TRUE(std::isfinite(ci.half_width()));
  EXPECT_LT(ci.half_width(), 1.959964 * sd2 / std::sqrt(2.0));
}

TEST(ObsStatTest, ConvergenceMonitorVerdicts) {
  using Verdict = obs::ConvergenceMonitor::Verdict;
  obs::ConvergenceMonitor m("", /*window=*/3, /*rel_tol=*/1e-3,
                            /*diverge_factor=*/10.0);
  EXPECT_EQ(m.Add(100.0), Verdict::kImproving);
  EXPECT_EQ(m.Add(50.0), Verdict::kImproving);
  // Three consecutive non-improving epochs -> stalled.
  EXPECT_EQ(m.Add(50.0), Verdict::kImproving);
  EXPECT_EQ(m.Add(50.0), Verdict::kImproving);
  EXPECT_EQ(m.Add(50.0), Verdict::kStalled);
  // Improvement clears the stall.
  EXPECT_EQ(m.Add(10.0), Verdict::kImproving);
  // Blow-up past diverge_factor * best is sticky.
  EXPECT_EQ(m.Add(500.0), Verdict::kDiverged);
  EXPECT_EQ(m.Add(1.0), Verdict::kDiverged);
  EXPECT_STREQ(obs::ConvergenceMonitor::VerdictName(Verdict::kDiverged),
               "diverged");

  obs::ConvergenceMonitor nonfinite("");
  EXPECT_EQ(nonfinite.Add(std::nan("")), Verdict::kDiverged);
}

// ---------------------------------------------------------------------------
// Prometheus exposition.
// ---------------------------------------------------------------------------

TEST(ObsExportTest, SanitizeMetricName) {
  EXPECT_EQ(obs::SanitizeMetricName("pool.steals"), "pool_steals");
  EXPECT_EQ(obs::SanitizeMetricName("a-b c:d"), "a_b_c:d");
  EXPECT_EQ(obs::SanitizeMetricName("9lives"), "_9lives");
  EXPECT_EQ(obs::SanitizeMetricName("ok_name"), "ok_name");
}

TEST(ObsExportTest, PrometheusTextGolden) {
  std::vector<obs::MetricSnapshot> snapshot;
  obs::MetricSnapshot c;
  c.name = "vec.chunks";
  c.kind = obs::MetricSnapshot::Kind::kCounter;
  c.value = 42.0;
  snapshot.push_back(c);
  obs::MetricSnapshot g;
  g.name = "smc.ess";
  g.kind = obs::MetricSnapshot::Kind::kGauge;
  g.value = 123.5;
  snapshot.push_back(g);
  obs::MetricSnapshot h;
  h.name = "lat.ms";
  h.kind = obs::MetricSnapshot::Kind::kHistogram;
  h.bounds = {1.0, 10.0};
  h.buckets = {3, 2, 1};  // per-bucket counts, +inf last
  h.count = 6;
  h.value = 25.5;  // sum
  snapshot.push_back(h);

  const std::string expected =
      "# TYPE vec_chunks counter\n"
      "vec_chunks 42\n"
      "# TYPE smc_ess gauge\n"
      "smc_ess 123.5\n"
      "# TYPE lat_ms histogram\n"
      "lat_ms_bucket{le=\"1\"} 3\n"
      "lat_ms_bucket{le=\"10\"} 5\n"
      "lat_ms_bucket{le=\"+Inf\"} 6\n"
      "lat_ms_sum 25.5\n"
      "lat_ms_count 6\n";
  EXPECT_EQ(obs::PrometheusText(snapshot), expected);
}

TEST(ObsExportTest, AppendDerivedGaugesPairsMemCounters) {
  std::vector<obs::MetricSnapshot> snapshot;
  obs::MetricSnapshot a;
  a.name = "obs.mem.poolx.alloc_bytes";
  a.kind = obs::MetricSnapshot::Kind::kCounter;
  a.value = 1000.0;
  snapshot.push_back(a);
  obs::MetricSnapshot f;
  f.name = "obs.mem.poolx.freed_bytes";
  f.kind = obs::MetricSnapshot::Kind::kCounter;
  f.value = 400.0;
  snapshot.push_back(f);
  obs::AppendDerivedGauges(&snapshot);
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[2].name, "obs.mem.poolx.live_bytes");
  EXPECT_EQ(snapshot[2].kind, obs::MetricSnapshot::Kind::kGauge);
  EXPECT_DOUBLE_EQ(snapshot[2].value, 600.0);
}

TEST(ObsExportTest, GlobalPrometheusHasCumulativeBuckets) {
  obs::Histogram* h = Registry::Global().histogram(
      "test.prom_hist", {1.0, 10.0, 100.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(500.0);
  const std::string text = obs::PrometheusText();
  // Extract this histogram's bucket lines; the running totals must be
  // non-decreasing and the +Inf bucket must equal _count.
  std::regex bucket_re("test_prom_hist_bucket\\{le=\"([^\"]+)\"\\} (\\d+)");
  std::regex count_re("test_prom_hist_count (\\d+)");
  auto begin =
      std::sregex_iterator(text.begin(), text.end(), bucket_re);
  uint64_t prev = 0;
  uint64_t last = 0;
  size_t n_buckets = 0;
  std::string last_le;
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const uint64_t v = std::stoull((*it)[2].str());
    EXPECT_GE(v, prev);
    prev = v;
    last = v;
    last_le = (*it)[1].str();
    ++n_buckets;
  }
  EXPECT_EQ(n_buckets, 4u);
  EXPECT_EQ(last_le, "+Inf");
  std::smatch cm;
  ASSERT_TRUE(std::regex_search(text, cm, count_re));
  EXPECT_EQ(std::stoull(cm[1].str()), last);
}

TEST(ObsMetricsTest, HistogramBoundsConflictCounted) {
  obs::Counter* conflicts =
      Registry::Global().counter("obs.histogram.bounds_conflict");
  Registry::Global().histogram("test.conflict_hist", {1.0, 2.0});
  const uint64_t before = conflicts->Value();
  // Same bounds: no conflict.
  obs::Histogram* again =
      Registry::Global().histogram("test.conflict_hist", {1.0, 2.0});
  EXPECT_EQ(conflicts->Value(), before);
  // Different bounds: first registration wins, conflict counted.
  obs::Histogram* other =
      Registry::Global().histogram("test.conflict_hist", {5.0});
  EXPECT_EQ(conflicts->Value(), before + 1);
  EXPECT_EQ(again, other);
  EXPECT_EQ(other->bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsMetricsTest, TextDumpGaugesRoundTrip) {
  const double v = 0.1 + 1.0 / 3.0;  // not representable in 6 digits
  Registry::Global().gauge("test.roundtrip_gauge")->Set(v);
  const std::string dump = Registry::Global().TextDump();
  std::regex line_re("test\\.roundtrip_gauge ([^\\n]+)");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(dump, m, line_re));
  EXPECT_EQ(std::strtod(m[1].str().c_str(), nullptr), v);
}

// ---------------------------------------------------------------------------
// Memory accounting.
// ---------------------------------------------------------------------------

TEST(ObsMemTest, LiveBytesTracksAllocAndFree) {
  const uint64_t before = obs::LiveBytes("test.mempool");
  obs::RecordAlloc("test.mempool", 1000);
  EXPECT_EQ(obs::LiveBytes("test.mempool"), before + 1000);
  obs::RecordFree("test.mempool", 400);
  EXPECT_EQ(obs::LiveBytes("test.mempool"), before + 600);
  obs::RecordFree("test.mempool", 600);
  EXPECT_EQ(obs::LiveBytes("test.mempool"), before);
}

TEST(ObsMemTest, MemAccountRaii) {
  const uint64_t before = obs::LiveBytes("test.raii_pool");
  {
    obs::MemAccount acc("test.raii_pool");
    acc.Set(500);
    EXPECT_EQ(obs::LiveBytes("test.raii_pool"), before + 500);
    acc.Set(200);  // shrink reports the delta as freed
    EXPECT_EQ(obs::LiveBytes("test.raii_pool"), before + 200);
    obs::MemAccount copy = acc;  // copy re-reports its footprint
    EXPECT_EQ(obs::LiveBytes("test.raii_pool"), before + 400);
    obs::MemAccount moved = std::move(copy);  // move transfers, no change
    EXPECT_EQ(obs::LiveBytes("test.raii_pool"), before + 400);
  }
  EXPECT_EQ(obs::LiveBytes("test.raii_pool"), before);
}

TEST(ObsMemTest, ProcessMemorySampleOnLinux) {
  const obs::ProcessMemory mem = obs::SampleProcessMemory();
  if (mem.ok) {
    EXPECT_GT(mem.rss_kb, 0);
    EXPECT_GE(mem.peak_rss_kb, mem.rss_kb);
  }
}

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

TEST(ObsSamplerTest, MonotoneDeltasUnderConcurrentWriters) {
  const std::string path =
      testing::TempDir() + "/obs_export_sampler_test.jsonl";
  obs::Counter* c = Registry::Global().counter("test.sampler_mono");
  const uint64_t start = c->Value();
  {
    obs::SamplerOptions options;
    options.path = path;
    options.period = std::chrono::milliseconds(5);
    obs::Sampler sampler(options);
    ASSERT_TRUE(sampler.ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([c] {
        for (int i = 0; i < 50000; ++i) c->Add(1);
      });
    }
    for (auto& t : writers) t.join();
    sampler.Stop();
    EXPECT_GE(sampler.samples_written(), 1u);
  }
  const uint64_t total = c->Value() - start;
  EXPECT_EQ(total, 200000u);

  // Re-read the file: totals must be non-decreasing, deltas must sum to
  // the final total, and every line must parse (the report renders it).
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string jsonl = buffer.str();
  std::regex re(
      "\"test\\.sampler_mono\":\\{\"v\":(\\d+),\"d\":(\\d+)\\}");
  uint64_t prev_v = 0;
  uint64_t sum_d = 0;
  uint64_t last_v = 0;
  size_t lines_with_counter = 0;
  for (auto it = std::sregex_iterator(jsonl.begin(), jsonl.end(), re);
       it != std::sregex_iterator(); ++it) {
    const uint64_t v = std::stoull((*it)[1].str());
    EXPECT_GE(v, prev_v);
    prev_v = v;
    sum_d += std::stoull((*it)[2].str());
    last_v = v;
    ++lines_with_counter;
  }
  ASSERT_GE(lines_with_counter, 1u);
  EXPECT_EQ(sum_d, last_v);
  EXPECT_GE(last_v, start + total);

  std::string report, error;
  ASSERT_TRUE(obs::RenderRunReport("", jsonl, {}, &report, &error)) << error;
  EXPECT_NE(report.find("test.sampler_mono"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine wiring: smc.ess gauge.
// ---------------------------------------------------------------------------

/// Bootstrap 1-D random walk observed in gaussian noise.
class WalkModel : public smc::StateSpaceModel {
 public:
  smc::State SampleInitial(const smc::Observation&, Rng& rng) const override {
    return {SampleStandardNormal(rng)};
  }
  smc::State SampleProposal(const smc::Observation&, const smc::State& x,
                            Rng& rng) const override {
    return {SampleNormal(rng, x[0], 0.5)};
  }
  double LogObservation(const smc::Observation& y,
                        const smc::State& x) const override {
    const double d = y[0] - x[0];
    return -0.5 * d * d;
  }
};

TEST(ObsWiringTest, SmcEssGaugeMatchesLastStepStats) {
  WalkModel model;
  smc::ParticleFilterOptions options;
  options.num_particles = 200;
  options.ess_threshold = 0.5;
  options.seed = 99;
  smc::ParticleFilter pf(model, options);
  ASSERT_TRUE(pf.Initialize({0.1}).ok());
  for (double y : {0.2, -0.1, 0.4, 1.0}) {
    ASSERT_TRUE(pf.Step({y}).ok());
  }
  ASSERT_FALSE(pf.step_stats().empty());
  const double gauge = Registry::Global().gauge("smc.ess")->Value();
  EXPECT_DOUBLE_EQ(gauge, pf.step_stats().back().ess);
}

// ---------------------------------------------------------------------------
// Engine wiring: CLT half-width gauges. mde_report's health table lists
// them, so their names and values are locked here: each equals the 95%
// half-width (1.959964 * standard error) and count of a RunningStat over
// the same samples, and the half-width is published only once n >= 2.
// ---------------------------------------------------------------------------

TEST(ObsWiringTest, CiHalfWidthGaugesMatchRunningStat) {
  obs::Gauge* mcdb_hw = Registry::Global().gauge("mcdb.ci_halfwidth");
  obs::Gauge* mcdb_n = Registry::Global().gauge("mcdb.ci_halfwidth.n");
  Rng rng(2024);
  std::vector<double> samples;
  RunningStat expect;
  for (int i = 0; i < 37; ++i) {
    samples.push_back(SampleNormal(rng, 3.0, 2.0));
    expect.Add(samples.back());
  }
  ASSERT_TRUE(mcdb::Summarize(samples).ok());
  EXPECT_EQ(mcdb_hw->Value(), 1.959964 * expect.std_error());
  EXPECT_EQ(mcdb_n->Value(), 37.0);

  // One sample has no CLT bound: the count moves, the half-width does not.
  mcdb_hw->Set(-1.0);
  ASSERT_TRUE(mcdb::Summarize({5.0}).ok());
  EXPECT_EQ(mcdb_hw->Value(), -1.0);
  EXPECT_EQ(mcdb_n->Value(), 1.0);

  simsql::MarkovChainDb db;
  simsql::ChainTableSpec spec;
  spec.name = "WALK";
  spec.init = [](const simsql::DatabaseState&, Rng&) -> Result<table::Table> {
    table::Table t{table::Schema({{"pos", table::DataType::kDouble}})};
    t.Append({table::Value(0.0)});
    return t;
  };
  spec.transition = [](const simsql::DatabaseState& prev,
                       const simsql::DatabaseState&,
                       Rng& r) -> Result<table::Table> {
    table::Table t(prev.at("WALK").schema());
    t.Append({table::Value(prev.at("WALK").row(0)[0].AsDouble() +
                           SampleStandardNormal(r))});
    return t;
  };
  ASSERT_TRUE(db.AddChainTable(std::move(spec)).ok());
  auto chain = simsql::MonteCarloChain(
      db, 3, 25, 11, [](const simsql::DatabaseState& s) -> Result<double> {
        return s.at("WALK").row(0)[0].AsDouble();
      });
  ASSERT_TRUE(chain.ok());
  RunningStat chain_expect;
  for (double v : chain.value()) chain_expect.Add(v);
  EXPECT_EQ(Registry::Global().gauge("simsql.mc.ci_halfwidth")->Value(),
            1.959964 * chain_expect.std_error());
  EXPECT_EQ(Registry::Global().gauge("simsql.mc.ci_halfwidth.n")->Value(),
            25.0);
}

// ---------------------------------------------------------------------------
// Histogram quantiles + run report.
// ---------------------------------------------------------------------------

TEST(ObsReportTest, HistogramQuantileInterpolates) {
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  // 10 observations uniform in the second bucket (10, 20].
  const std::vector<uint64_t> buckets = {0, 10, 0, 0};
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(bounds, buckets, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(bounds, buckets, 1.0), 20.0);
  // Mass split across buckets: p50 exactly at the first bound.
  EXPECT_DOUBLE_EQ(
      obs::HistogramQuantile(bounds, {5, 5, 0, 0}, 0.5), 10.0);
  // +inf bucket has no upper edge: reports the last finite bound.
  EXPECT_DOUBLE_EQ(
      obs::HistogramQuantile(bounds, {0, 0, 0, 4}, 0.99), 30.0);
  // Empty histogram.
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
}

TEST(ObsReportTest, HistogramQuantileFlagsOverflowBucket) {
  // Regression: a quantile landing in the +inf bucket used to be reported
  // as a plain value at the last finite bound, silently understating the
  // tail. The Ex variant must flag it so callers can render ">= bound".
  const std::vector<double> bounds = {10.0, 20.0, 30.0};
  const auto all_over = obs::HistogramQuantileEx(bounds, {0, 0, 0, 4}, 0.99);
  EXPECT_TRUE(all_over.overflow);
  EXPECT_DOUBLE_EQ(all_over.value, 30.0);

  // Mass split between the first bucket and the overflow bucket: p25 is a
  // real interpolated value, p99 is censored.
  const auto low = obs::HistogramQuantileEx(bounds, {5, 0, 0, 5}, 0.25);
  EXPECT_FALSE(low.overflow);
  EXPECT_DOUBLE_EQ(low.value, 5.0);
  const auto high = obs::HistogramQuantileEx(bounds, {5, 0, 0, 5}, 0.99);
  EXPECT_TRUE(high.overflow);
  EXPECT_DOUBLE_EQ(high.value, 30.0);

  // Empty histograms are not "overflowed".
  EXPECT_FALSE(obs::HistogramQuantileEx(bounds, {0, 0, 0, 0}, 0.5).overflow);
}

TEST(ObsReportTest, ReportRendersOverflowQuantilesAsLowerBound) {
  // One observation in (10, 20] and three past the last bound: p50/p99 sit
  // in the overflow bucket and must render as ">= 20", not as "20".
  const std::string jsonl =
      R"({"t_ms":1.0,"hist":{"lat":{"count":4,"sum":400,)"
      R"("bounds":[10,20],"buckets":[0,1,3]}}})"
      "\n";
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderRunReport("", jsonl, {}, &report, &error)) << error;
  EXPECT_NE(report.find(">= 20"), std::string::npos) << report;
}

TEST(ObsReportTest, RendersSectionsFromInlineArtifacts) {
  const std::string trace = R"({"traceEvents":[
    {"name":"plan.execute","cat":"mde","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
    {"name":"vec.filter","cat":"mde","ph":"X","ts":10,"dur":40,"pid":1,"tid":1},
    {"name":"vec.filter","cat":"mde","ph":"X","ts":60,"dur":20,"pid":1,"tid":1}
  ]})";
  const std::string jsonl =
      "{\"t_ms\":1.0,\"counters\":{\"steps\":{\"v\":10,\"d\":10}},"
      "\"gauges\":{\"obs.health.dsgd\":0,\"smc.ess\":150.0,"
      "\"obs.mem.p.live_bytes\":64},\"hist\":{\"lat\":{\"count\":10,"
      "\"sum\":150,\"bounds\":[10,20],\"buckets\":[0,10,0]}},"
      "\"mem\":{\"rss_kb\":1024,\"peak_rss_kb\":2048}}\n"
      "{\"t_ms\":101.0,\"counters\":{\"steps\":{\"v\":110,\"d\":100}},"
      "\"gauges\":{\"obs.health.dsgd\":1,\"smc.ess\":120.0,"
      "\"obs.mem.p.live_bytes\":128},\"hist\":{\"lat\":{\"count\":20,"
      "\"sum\":300,\"bounds\":[10,20],\"buckets\":[0,20,0]}},"
      "\"mem\":{\"rss_kb\":2048,\"peak_rss_kb\":2048}}\n";
  std::string report, error;
  ASSERT_TRUE(obs::RenderRunReport(trace, jsonl, {}, &report, &error))
      << error;
  // Spans: vec.filter self 60us, plan.execute self 40us.
  EXPECT_NE(report.find("Top self-time spans"), std::string::npos);
  EXPECT_LT(report.find("vec.filter"), report.find("plan.execute"));
  // Counter totals and a 1000/s rate over the 100ms window.
  EXPECT_NE(report.find("| steps | 110 | 1000.0 |"), std::string::npos);
  // Histogram quantiles from the final line's buckets.
  EXPECT_NE(report.find("Histogram quantiles"), std::string::npos);
  EXPECT_NE(report.find("| lat | 20 | 15 | 15 | 19 | 19.9 |"),
            std::string::npos);
  // Health verdict mapped to its name; stalled = 1.
  EXPECT_NE(report.find("| dsgd | stalled |"), std::string::npos);
  EXPECT_NE(report.find("| smc.ess | 120 |"), std::string::npos);
  // Memory section shows the live pool and process RSS.
  EXPECT_NE(report.find("obs.mem.p.live_bytes"), std::string::npos);
  EXPECT_NE(report.find("| process RSS (kB) | 2048 |"), std::string::npos);

  // Plain-text mode renders without Markdown pipes in headings.
  obs::RunReportOptions text_options;
  text_options.markdown = false;
  ASSERT_TRUE(
      obs::RenderRunReport(trace, jsonl, text_options, &report, &error));
  EXPECT_NE(report.find("=== mde run report ==="), std::string::npos);
}

TEST(ObsReportTest, EmptyInputsRenderEmptyReport) {
  std::string report, error;
  ASSERT_TRUE(obs::RenderRunReport("", "", {}, &report, &error));
  EXPECT_NE(report.find("run report"), std::string::npos);
}

TEST(ObsReportTest, MalformedInputsFail) {
  std::string report, error;
  EXPECT_FALSE(obs::RenderRunReport("{not json", "", {}, &report, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(
      obs::RenderRunReport("", "{\"t_ms\":oops}\n", {}, &report, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: engine results are bit-identical across thread counts while
// a fast Sampler snapshots the registry concurrently.
// ---------------------------------------------------------------------------

TEST(ObsDeterminismTest, BundleAggregatesIdenticalUnderSampler) {
  const std::string path =
      testing::TempDir() + "/obs_export_determinism.jsonl";
  obs::SamplerOptions options;
  options.path = path;
  options.period = std::chrono::milliseconds(10);
  obs::Sampler sampler(options);

  auto run = [](ThreadPool* pool) {
    table::Schema schema({{"id", table::DataType::kInt64}});
    mcdb::BundleTable t(schema, {"x"}, /*num_reps=*/64);
    t.set_pool(pool);
    Rng rng(42);
    for (int64_t i = 0; i < 2000; ++i) {
      mcdb::BundleTable::BundleRow row;
      row.det = {table::Value(i)};
      row.stoch.resize(1);
      for (int r = 0; r < 64; ++r) {
        row.stoch[0].push_back(SampleNormal(rng, 0.0, 10.0));
      }
      t.Append(std::move(row));
    }
    auto filtered = t.FilterStoch("x", table::CmpOp::kGt, -5.0);
    EXPECT_TRUE(filtered.ok());
    auto sums = filtered.value().AggregateSum("x");
    EXPECT_TRUE(sums.ok());
    return sums.value();
  };

  const std::vector<double> serial = run(nullptr);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const std::vector<double> with2 = run(&pool2);
  const std::vector<double> with8 = run(&pool8);
  ASSERT_EQ(serial.size(), with2.size());
  ASSERT_EQ(serial.size(), with8.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(serial[i], with2[i]) << "rep " << i;
    EXPECT_EQ(serial[i], with8[i]) << "rep " << i;
  }
  sampler.Stop();
  EXPECT_GE(sampler.samples_written(), 1u);
}

}  // namespace
}  // namespace mde
