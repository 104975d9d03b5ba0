#include "batch_workload.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "context.h"
#include "mcdb/bundle.h"
#include "mcdb/mcdb.h"
#include "mcdb/pregen.h"
#include "mcdb/vg_function.h"
#include "obs/metrics.h"
#include "simsql/simsql.h"
#include "table/columnar.h"
#include "table/plan.h"
#include "table/vec_ops.h"
#include "util/distributions.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using mde::Result;
using mde::Rng;
using mde::Status;
using mde::table::CmpOp;
using mde::table::DataType;
using mde::table::PlanNode;
using mde::table::PlanPtr;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr size_t kPatients = 10000;
constexpr size_t kReps = 1000;
constexpr size_t kOrders = 200000;
constexpr size_t kCustomers = 5000;
constexpr size_t kWalkers = 10000;
constexpr size_t kChainSteps = 10;
constexpr size_t kChainReps = 4;  // chain runs cycle over these replications
constexpr double kSbpMean = 120.0;
constexpr double kSbpSd = 15.0;
/// The MC check accepts a mean within this many standard errors of the
/// model's known mean: a correct run fails it with probability < 1e-8.
constexpr double kCltZ = 6.0;

uint64_t Counter(const char* name) {
  return mde::obs::Registry::Global().counter(name)->Value();
}

/// MCDB's running example: SBP ~ Normal(120, 15) for every patient.
mde::mcdb::MonteCarloDb MakePatients(uint64_t seed) {
  mde::mcdb::MonteCarloDb db;
  Rng rng(seed);
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < kPatients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)),
              Value(rng.NextBounded(2) == 0 ? "F" : "M")});
  }
  (void)db.AddTable("PATIENTS", std::move(p));
  Table param{Schema({{"MEAN", DataType::kDouble}, {"STD", DataType::kDouble}})};
  param.Append({Value(kSbpMean), Value(kSbpSd)});
  (void)db.AddTable("SBP_PARAM", std::move(param));
  mde::mcdb::StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<mde::mcdb::NormalVg>();
  spec.param_binder = [](const mde::table::Row&,
                         const mde::mcdb::DatabaseInstance& det)
      -> Result<mde::table::Row> {
    const Table& prm = det.at("SBP_PARAM");
    return mde::table::Row{prm.row(0)[0], prm.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const mde::table::Row& outer,
                      const mde::table::Row& vg) {
    return mde::table::Row{outer[0], outer[1], vg[0]};
  };
  (void)db.AddStochasticTable(std::move(spec));
  return db;
}

/// The random-walk chain of bench_simsql_markov: every version rewrites
/// the position block and shares the id block.
mde::simsql::ChainTableSpec WalkerSpec(size_t walkers) {
  mde::simsql::ChainTableSpec spec;
  spec.name = "W";
  spec.init = [walkers](const mde::simsql::DatabaseState&,
                        Rng&) -> Result<Table> {
    mde::table::ColumnarTableBuilder b{
        Schema({{"id", DataType::kInt64}, {"pos", DataType::kDouble}})};
    b.Reserve(walkers);
    for (size_t i = 0; i < walkers; ++i) {
      b.column(0).AppendInt64(static_cast<int64_t>(i));
      b.column(1).AppendDouble(0.0);
    }
    MDE_ASSIGN_OR_RETURN(auto cols, b.Finish());
    return Table::FromColumnar(std::move(cols));
  };
  spec.transition = [](const mde::simsql::DatabaseState& prev,
                       const mde::simsql::DatabaseState&,
                       Rng& rng) -> Result<Table> {
    ScopedSpan span("chain.transition", Layer::kSimsql);
    const Table& old = prev.at("W");
    MDE_ASSIGN_OR_RETURN(auto old_cols, old.ToColumnar());
    const mde::table::Column& pos = old_cols->col(1);
    mde::table::ColumnarTableBuilder b{old.schema()};
    b.SetColumn(0, old_cols->col_ptr(0));
    b.column(1).Reserve(pos.size);
    for (size_t i = 0; i < pos.size; ++i) {
      b.column(1).AppendDouble(pos.f64[i] + mde::SampleStandardNormal(rng));
    }
    MDE_ASSIGN_OR_RETURN(auto cols, b.Finish());
    return Table::FromColumnar(std::move(cols));
  };
  return spec;
}

/// Sum of positions after the chain, computed serially without the engine:
/// the reference every chain run must match bit for bit.
uint64_t SerialChainChecksum(uint64_t seed, uint64_t rep) {
  Rng rng = Rng::Substream(seed, rep);
  std::vector<double> pos(kWalkers, 0.0);
  for (size_t step = 0; step < kChainSteps; ++step) {
    for (double& p : pos) p += mde::SampleStandardNormal(rng);
  }
  double sum = 0.0;
  for (double p : pos) sum += p;
  return DoubleBits(sum);
}

Result<uint64_t> ChainChecksum(const mde::simsql::DatabaseState& state) {
  MDE_ASSIGN_OR_RETURN(auto cols, state.at("W").ToColumnar());
  double sum = 0.0;
  for (double p : cols->col(1).f64) sum += p;
  return DoubleBits(sum);
}

/// (rows, sum of oid, sum of cid) of a plan result: row order may differ
/// between plans, so only integer sums are compared.
struct PlanDigest {
  size_t rows = 0;
  int64_t oid_sum = 0;
  int64_t cid_sum = 0;
  bool operator==(const PlanDigest& o) const {
    return rows == o.rows && oid_sum == o.oid_sum && cid_sum == o.cid_sum;
  }
};

Result<PlanDigest> Digest(const Table& t) {
  MDE_ASSIGN_OR_RETURN(auto cols, t.ToColumnar());
  MDE_ASSIGN_OR_RETURN(size_t oid, t.schema().IndexOf("oid"));
  MDE_ASSIGN_OR_RETURN(size_t cid, t.schema().IndexOf("cid"));
  PlanDigest d;
  d.rows = cols->num_rows();
  for (int64_t v : cols->col(oid).i64) d.oid_sum += v;
  for (int64_t v : cols->col(cid).i64) d.cid_sum += v;
  return d;
}

/// |mean - truth| within kCltZ standard errors, over per-rep values.
bool WithinClt(const std::vector<double>& v, double truth, double* mean_out) {
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  const double se =
      std::sqrt(ss / static_cast<double>(v.size() - 1)) /
      std::sqrt(static_cast<double>(v.size()));
  *mean_out = mean;
  return std::isfinite(mean) && std::fabs(mean - truth) <= kCltZ * se;
}

/// E[SBP | SBP > mean] for a normal: mean + sd * phi(0) / (1 - Phi(0)).
double TruncatedMean() { return kSbpMean + kSbpSd * std::sqrt(2.0 / M_PI); }

}  // namespace

struct BatchBench::System {
  /// Runs only while batch work does (set-up, a phase slice, Audit), so
  /// the process never holds more than `threads` threads.
  std::unique_ptr<mde::ThreadPool> pool;  // declared first: destroyed last
  mde::mcdb::MonteCarloDb mc;
  uint64_t mc_seed = 0;
  Table orders, customers;  // scanned by `naive`: never moved after build
  PlanPtr naive;
  PlanDigest plan_ref;
  mde::simsql::MarkovChainDb walkers;
  uint64_t chain_seed = 0;
  std::array<uint64_t, kChainReps> chain_ref{};

  ~System() { StopPool(); }

  void StartPool(unsigned workers) {
    pool = std::make_unique<mde::ThreadPool>(workers);
    mde::table::SetVecPool(pool.get());
  }
  void StopPool() {
    mde::table::SetVecPool(nullptr);
    pool.reset();
  }
};

BatchBench::BatchBench(const RunOptions& opts, RunResult* result)
    : opts_(opts), result_(result) {}

BatchBench::~BatchBench() = default;

unsigned BatchBench::Workers() const { return std::max(1u, opts_.threads - 1); }

double BatchBench::Setup() {
  sys_.reset();
  double secs = 0.0;
  sys_ = Build(&secs);
  return secs;
}

double BatchBench::ProbeSetup() {
  double secs = 0.0;
  Build(&secs);
  return secs;
}

std::unique_ptr<BatchBench::System> BatchBench::Build(double* secs) {
  const uint64_t t0 = NowNs();
  auto sys = std::make_unique<System>();
  const uint64_t seed = SeedMix(opts_.seed, 0xba7c4);
  sys->StartPool(Workers());

  sys->mc = MakePatients(SeedMix(seed, 1));
  sys->mc_seed = SeedMix(seed, 2);

  Rng rng(SeedMix(seed, 3));
  sys->orders = Table{Schema({{"oid", DataType::kInt64},
                              {"cid", DataType::kInt64},
                              {"amount", DataType::kDouble}})};
  sys->orders.Reserve(kOrders);
  for (size_t o = 0; o < kOrders; ++o) {
    sys->orders.Append(
        {Value(static_cast<int64_t>(o)),
         Value(static_cast<int64_t>(rng.NextBounded(kCustomers))),
         Value(10.0 + static_cast<double>(rng.NextBounded(13)))});
  }
  sys->customers = Table{Schema({{"cid", DataType::kInt64},
                                 {"region", DataType::kString}})};
  for (size_t c = 0; c < kCustomers; ++c) {
    sys->customers.Append({Value(static_cast<int64_t>(c)),
                           Value(rng.NextBounded(5) == 0 ? "EAST" : "WEST")});
  }
  sys->naive = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&sys->orders, "orders"),
                     PlanNode::Scan(&sys->customers, "customers"), {"cid"},
                     {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(20.0)}});
  // The naive plan as written is the reference; executing it also converts
  // and caches the base tables' columnar blocks and seeds the catalog.
  mde::table::ExecutionStats stats;
  result_->Attempt();
  auto ref = mde::table::ExecutePlan(sys->naive, &stats);
  Result<PlanDigest> digest =
      ref.ok() ? Digest(ref.value()) : Result<PlanDigest>(ref.status());
  if (!digest.ok()) {
    result_->Fail("batch setup: reference plan: " + digest.status().ToString());
    return nullptr;
  }
  sys->plan_ref = digest.value();

  sys->chain_seed = SeedMix(seed, 4);
  (void)sys->walkers.AddChainTable(WalkerSpec(kWalkers));
  for (size_t r = 0; r < kChainReps; ++r) {
    sys->chain_ref[r] = SerialChainChecksum(sys->chain_seed, r);
  }

  // Warm-up round: catalog feedback from the optimized plan and the
  // allocator settle here, not in timed operations.
  BatchPhase warm;
  RunRound(*sys, &warm);
  sys->StopPool();
  *secs = static_cast<double>(NowNs() - t0) * 1e-9;
  return sys;
}

void BatchBench::RunRound(System& s, BatchPhase* phase) {
  // The engine calls nest under the round, so its self time is the
  // benchmark's own checks: CLT tests, plan digests, chain checksums.
  ScopedSpan round_span("bench.round", Layer::kBench);
  mde::ThreadPool* pool = s.pool.get();
  const auto& spec = s.mc.stochastic_specs()[0];
  const uint64_t mc_seed = SeedMix(s.mc_seed, round_);
  const uint64_t rep = round_ % kChainReps;
  ++round_;
  double mean = 0.0;

  // mc_pushdown: the deterministic predicate runs before generation.
  result_->Attempt();
  uint64_t t0 = NowNs();
  {
    std::optional<Result<mde::mcdb::BundleTable>> b;
    mde::mcdb::PregenReport report;
    {
      ScopedSpan span("mcdb.generate.pushdown", Layer::kMcdb);
      b.emplace(mde::mcdb::GenerateBundlesWhere(
          s.mc, spec, "SBP", kReps, mc_seed,
          {{"GENDER", CmpOp::kEq, Value("F")}}, pool, &report));
    }
    ScopedSpan span("mcdb.query.pushdown", Layer::kMcdb);
    Result<std::vector<double>> avg =
        b->ok() ? b->value().AggregateAvg("SBP")
                : Result<std::vector<double>>(b->status());
    b.reset();
    span.End(0);
    phase->pushdown_ns.push_back(static_cast<double>(NowNs() - t0));
    phase->draws_saved += report.draws_saved;
    phase->draws_kept += report.kept_rows * kReps;
    if (!avg.ok()) {
      result_->Fail("mc_pushdown: " + avg.status().ToString());
    } else if (!WithinClt(avg.value(), kSbpMean, &mean)) {
      result_->Fail("mc_pushdown: mean " + std::to_string(mean) +
                    " outside its CLT interval around 120");
    }
  }

  // mc_full: a predicate on the stochastic attribute, so every tuple draws.
  result_->Attempt();
  t0 = NowNs();
  {
    std::optional<Result<mde::mcdb::BundleTable>> b;
    {
      ScopedSpan span("mcdb.generate.full", Layer::kMcdb);
      b.emplace(mde::mcdb::GenerateBundles(s.mc, spec, "SBP", kReps, mc_seed,
                                           pool));
    }
    ScopedSpan span("mcdb.query.full", Layer::kMcdb);
    Result<std::vector<double>> avg = Status::Internal("not run");
    if (b->ok()) {
      auto high = b->value().FilterStoch("SBP", CmpOp::kGt, kSbpMean);
      avg = high.ok() ? high.value().AggregateAvg("SBP")
                      : Result<std::vector<double>>(high.status());
    } else {
      avg = b->status();
    }
    b.reset();
    span.End(0);
    phase->full_ns.push_back(static_cast<double>(NowNs() - t0));
    if (!avg.ok()) {
      result_->Fail("mc_full: " + avg.status().ToString());
    } else if (!WithinClt(avg.value(), TruncatedMean(), &mean)) {
      result_->Fail("mc_full: mean " + std::to_string(mean) +
                    " outside its CLT interval around E[SBP | SBP > 120]");
    }
  }

  // plan: optimize the naive spelling, execute with per-node profiling
  // (the same argument in traced and untraced runs).
  result_->Attempt();
  t0 = NowNs();
  {
    Result<PlanPtr> plan = [&] {
      ScopedSpan span("table.optimize", Layer::kTable);
      return mde::table::OptimizePlan(s.naive);
    }();
    mde::table::ExecutionStats stats;
    Result<Table> out = Status::Internal("not run");
    if (plan.ok()) {
      ScopedSpan span("table.execute", Layer::kTable);
      out = mde::table::ExecutePlan(plan.value(), &stats);
    } else {
      out = plan.status();
    }
    phase->plan_ns.push_back(static_cast<double>(NowNs() - t0));
    phase->intermediate_rows += stats.intermediate_rows;
    Result<PlanDigest> d =
        out.ok() ? Digest(out.value()) : Result<PlanDigest>(out.status());
    if (!d.ok()) {
      result_->Fail("plan: " + d.status().ToString());
    } else if (!(d.value() == s.plan_ref)) {
      result_->Fail("plan: optimized result differs from the naive plan's");
    }
  }

  // chain_run: 10 steps; its transitions are traced as children. The one
  // single-threaded operation: it runs on a different CPU each round.
  result_->Attempt();
  {
    const ScopedCpuPin pin(static_cast<unsigned>(rep));
    t0 = NowNs();
    Result<mde::simsql::DatabaseState> st = [&] {
      ScopedSpan span("simsql.run", Layer::kSimsql);
      return s.walkers.Run(kChainSteps, s.chain_seed, rep);
    }();
    phase->chain_ns.push_back(static_cast<double>(NowNs() - t0));
    Result<uint64_t> sum =
        st.ok() ? ChainChecksum(st.value()) : Result<uint64_t>(st.status());
    if (!sum.ok()) {
      result_->Fail("chain_run: " + sum.status().ToString());
    } else if (sum.value() != s.chain_ref[rep]) {
      result_->Fail("chain_run: checksum differs from the serial reference");
    }
  }
  ++phase->rounds;
}

void BatchBench::RunPhase(double seconds, bool traced, BatchPhase* acc) {
  if (sys_ == nullptr) return;
  sys_->StartPool(Workers());
  std::unique_ptr<SpanLog> log;
  ThreadTrace& trace = CurrentTrace();
  if (traced) {
    log = std::make_unique<SpanLog>(0, 1u << 16);
    trace.log = log.get();
  }
  const uint64_t vg0 = Counter("mcdb.vg_samples");
  const uint64_t chunks0 = Counter("vec.chunks");
  const uint64_t fb0 = Counter("plan.fallback_to_row_path") +
                       Counter("table.fallback_to_row_path");
  const uint64_t cc0 = Counter("table.columnar_cache_hits");

  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  if (log != nullptr) log->OpenWindow();
  do {
    RunRound(*sys_, acc);
  } while (NowNs() < deadline);
  if (log != nullptr) log->CloseWindow();
  acc->wall_s += static_cast<double>(NowNs() - start) * 1e-9;

  for (const auto& w : sys_->pool->WorkerStatsSnapshot()) {
    acc->pool_tasks += w.tasks_executed;
    acc->pool_steals += w.steals;
    acc->pool_help_runs += w.help_runs;
  }
  acc->vg_samples += Counter("mcdb.vg_samples") - vg0;
  acc->vec_chunks += Counter("vec.chunks") - chunks0;
  acc->row_fallbacks += Counter("plan.fallback_to_row_path") +
                        Counter("table.fallback_to_row_path") - fb0;
  acc->columnar_cache_hits += Counter("table.columnar_cache_hits") - cc0;
  if (log != nullptr) {
    trace.log = nullptr;
    acc->spans.insert(acc->spans.end(), log->spans().begin(),
                      log->spans().end());
    acc->window_ns += log->window_ns();
  }
  sys_->StopPool();
}

void BatchBench::Audit() {
  if (sys_ == nullptr) return;
  System& s = *sys_;
  s.StartPool(Workers());
  const auto& spec = s.mc.stochastic_specs()[0];
  result_->Attempt();
  auto where = mde::mcdb::GenerateBundlesWhere(
      s.mc, spec, "SBP", kReps, s.mc_seed,
      {{"GENDER", CmpOp::kEq, Value("F")}}, s.pool.get());
  auto all = mde::mcdb::GenerateBundles(s.mc, spec, "SBP", kReps, s.mc_seed,
                                        s.pool.get());
  if (!where.ok() || !all.ok()) {
    result_->Fail("audit: generation failed");
    s.StopPool();
    return;
  }
  auto pred = mde::table::ColumnCompare(all.value().det_schema(), "GENDER",
                                        CmpOp::kEq, Value("F"));
  if (!pred.ok()) {
    result_->Fail("audit: " + pred.status().ToString());
    s.StopPool();
    return;
  }
  const mde::mcdb::BundleTable filtered = all.value().FilterDet(pred.value());
  const mde::mcdb::BundleTable& w = where.value();
  bool same = w.num_rows() == filtered.num_rows() &&
              w.stoch_block(0).size() == filtered.stoch_block(0).size() &&
              w.active_words().size() == filtered.active_words().size();
  if (same) {
    same = std::memcmp(w.stoch_block(0).data(), filtered.stoch_block(0).data(),
                       w.stoch_block(0).size() * sizeof(double)) == 0 &&
           std::memcmp(w.active_words().data(), filtered.active_words().data(),
                       w.active_words().size() * sizeof(uint64_t)) == 0;
  }
  for (size_t i = 0; same && i < w.num_rows(); ++i) {
    same = w.det_row(i)[0].AsInt() == filtered.det_row(i)[0].AsInt();
  }
  if (!same) {
    result_->Fail("audit: GenerateBundlesWhere differs from GenerateBundles "
                  "+ FilterDet");
  }
  s.StopPool();
}

void BatchBench::ReportEndToEnd(BatchPhase& p) {
  const Summary push = Summarize(&p.pushdown_ns, 0.90);
  const Summary full = Summarize(&p.full_ns, 0.90);
  const Summary plan = Summarize(&p.plan_ns, 0.90);
  const Summary chain = Summarize(&p.chain_ns, 0.90);
  // Tails are printed as diagnostics only: ~100 sequential samples.
  RunResult::PrintSummary("batch.mc_pushdown", push, "ms", 1e-6);
  RunResult::PrintSummary("batch.mc_full", full, "ms", 1e-6);
  RunResult::PrintSummary("batch.plan", plan, "ms", 1e-6);
  RunResult::PrintSummary("batch.chain_run", chain, "ms", 1e-6);
  std::printf("{\"diag\":\"batch.rounds\",\"rounds\":%llu,\"wall_s\":%.3f}\n",
              static_cast<unsigned long long>(p.rounds), p.wall_s);
  result_->Check(p.rounds > kMinBeyond, "batch: too few rounds for a median");
  result_->Add("mc_pushdown_p50_ms", push.p50 * 1e-6, "ms");
  result_->Add("mc_full_p50_ms", full.p50 * 1e-6, "ms");
  result_->Add("plan_p50_ms", plan.p50 * 1e-6, "ms");
  result_->Add("chain_run_p50_ms", chain.p50 * 1e-6, "ms");
}

void BatchBench::ReportLayers(BatchPhase& untraced, BatchPhase& traced) {
  const std::vector<Span>& spans = traced.spans;
  const std::vector<uint64_t> self = SelfTimes(spans);
  const auto p50 = [&](const char* name, bool use_self, double scale) {
    return SpanMedianNs(spans, use_self ? &self : nullptr, name) * scale;
  };
  const double rounds = static_cast<double>(std::max<uint64_t>(1, traced.rounds));
  result_->Add("simsql.transition_us_p50", p50("chain.transition", false, 1e-3),
               "us");
  result_->Add("simsql.runner_self_ms_p50", p50("simsql.run", true, 1e-6), "ms");
  result_->Add("mcdb.pushdown_generate_ms_p50",
               p50("mcdb.generate.pushdown", false, 1e-6), "ms");
  result_->Add("mcdb.pushdown_query_ms_p50",
               p50("mcdb.query.pushdown", false, 1e-6), "ms");
  result_->Add("mcdb.full_generate_ms_p50",
               p50("mcdb.generate.full", false, 1e-6), "ms");
  result_->Add("mcdb.full_query_ms_p50", p50("mcdb.query.full", false, 1e-6),
               "ms");
  // Counters are per round (one op of each kind), so runs of different
  // lengths compare.
  result_->Add("mcdb.vg_samples", static_cast<double>(traced.vg_samples) / rounds,
               "draws/round");
  result_->Add("mcdb.draws_saved_ratio",
               static_cast<double>(traced.draws_saved) /
                   std::max(1.0, static_cast<double>(traced.draws_saved +
                                                     traced.draws_kept)),
               "ratio");
  result_->Add("table.optimize_us_p50", p50("table.optimize", false, 1e-3),
               "us");
  result_->Add("table.execute_ms_p50", p50("table.execute", false, 1e-6), "ms");
  result_->Add("table.intermediate_rows",
               static_cast<double>(traced.intermediate_rows) / rounds,
               "rows/round");
  result_->Add("table.vec_chunks", static_cast<double>(traced.vec_chunks) / rounds,
               "1/round");
  result_->Add("table.row_fallbacks",
               static_cast<double>(traced.row_fallbacks) / rounds, "1/round");
  result_->Add("table.columnar_cache_hits",
               static_cast<double>(traced.columnar_cache_hits) / rounds,
               "1/round");
  result_->Add("pool.tasks", static_cast<double>(traced.pool_tasks) / rounds,
               "1/round");
  result_->Add("pool.steals", static_cast<double>(traced.pool_steals) / rounds,
               "1/round");
  result_->Add("pool.help_runs",
               static_cast<double>(traced.pool_help_runs) / rounds, "1/round");
  result_->Add("pool.tasks_per_op",
               static_cast<double>(traced.pool_tasks) / (4.0 * rounds), "1/op");
  AddLayerSplit(spans, self, traced.window_ns,
                {Layer::kSimsql, Layer::kMcdb, Layer::kTable, Layer::kBench},
                "batch_analytics", result_);
  const double untraced_per_round =
      untraced.wall_s / static_cast<double>(std::max<uint64_t>(1, untraced.rounds));
  result_->Add("obs.trace_overhead_ratio",
               static_cast<double>(traced.window_ns) * 1e-9 / rounds /
          untraced_per_round,
      "ratio");
  if (!opts_.trace_path.empty()) {
    WriteChromeTrace(opts_.trace_path, spans, 50000);
  }
}

}  // namespace perfbench
