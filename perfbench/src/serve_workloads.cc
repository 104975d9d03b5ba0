#include "serve_workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>

#include "context.h"
#include "obs/context.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using mde::Rng;
using mde::serve::Answer;
using mde::serve::Request;
using mde::serve::Server;

/// Span flags on "serve.request": what the cache did.
enum Outcome : uint8_t { kHit = 1, kTopup = 2, kMiss = 3 };

Outcome Classify(const Answer& a) {
  if (a.cache_hit) return kHit;
  return a.reps_added < a.reps ? kTopup : kMiss;
}

/// Spans kept per client thread in one traced slice; a full log ends it.
constexpr size_t kSpanCapacity = 1u << 15;
/// Latency samples kept per class per client thread.
constexpr size_t kSamplesKept = 1u << 16;
/// Replications each shape gets in set-up.
constexpr uint64_t kWarmupReps = 64;
/// Answers replayed on a fresh server by the bit-identity audit.
constexpr size_t kAudits = 48;
/// Request shape constants shared by both serve workloads.
constexpr double kVol0 = 0.5;
constexpr double kHorizon0 = 4.0;
constexpr double kHorizonStep = 2.0;
constexpr double kTargetStep = 1.0;
constexpr uint64_t kMaxReps = 4096;
constexpr uint64_t kMinReps = 8;

/// Zipf over n shapes: shape k is picked with weight 1/(k+1)^s (s = 0 is
/// uniform).
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s) {
    double acc = 0.0;
    for (size_t k = 0; k < n; ++k) {
      acc += std::pow(static_cast<double>(k + 1), -s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Pick(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

size_t PickLevel(const std::vector<std::pair<double, double>>& ladder,
                 Rng& rng) {
  double u = rng.NextDouble();
  for (size_t i = 0; i + 1 < ladder.size(); ++i) {
    if (u < ladder[i].second) return i;
    u -= ladder[i].second;
  }
  return ladder.size() - 1;
}

double Us(double ns) { return ns * 1e-3; }

bool IsHit(uint8_t flags) { return flags == kHit; }
bool IsCompute(uint8_t flags) { return flags == kTopup || flags == kMiss; }

}  // namespace

ServeConfig ServeHotConfig() {
  ServeConfig c;
  c.name = "serve_hot";
  c.model = DemoModel();
  c.shapes = 12;
  c.zipf_s = 1.0;
  // Mostly the shape's own (loose) target; now and then an analyst asks
  // for a tighter one, which tops the entry up once per version.
  c.ladder = {{1.0, 0.90}, {0.8, 0.08}, {0.6, 0.02}};
  c.cache_max_bytes = 1u << 20;
  // Long versions: the hits between two advances outweigh the misses and
  // top-ups each advance causes.
  c.advance_every = 25000;
  return c;
}

ServeConfig ServeChurnConfig(uint64_t seed) {
  ServeConfig c;
  c.name = "serve_churn";
  c.model = WideModel(4096, 64, seed);
  c.shapes = 48;
  c.zipf_s = 0.0;  // wide: every shape equally likely
  c.vol_step = 0.0625;
  c.vol_mod = 16;
  c.horizon_mod = 3;
  c.target0 = 6.0;
  c.target_mod = 5;
  c.ladder = {{1.0, 0.6}, {0.8, 0.3}, {0.6, 0.1}};
  // About 48 entries: every advance leaves the previous version's entries
  // stale, and new ones push them out.
  c.cache_max_bytes = 48 * mde::serve::ResultCache::kEntryBytes;
  // About 16 requests per version across four sessions.
  c.advance_every = 4;
  return c;
}

struct ServeBench::System {
  mde::simsql::MarkovChainDb db;
  std::unique_ptr<Server> server;  // declared after db: it references db
};

struct ServeBench::Client {
  SampleBuffer all{kSamplesKept}, hit{kSamplesKept}, compute{kSamplesKept};
  std::vector<double> advance_ns;
  uint64_t requests = 0, hits = 0, topups = 0, misses = 0, advances = 0;
  uint64_t failed = 0;
  std::string first_failure;
  size_t bytes_peak = 0;
  size_t live_peak = 0;
  /// Last distinct answer seen per shape: the cheap consistency fast path.
  struct Last {
    uint64_t version = ~0ull;
    uint64_t reps = 0;
    uint64_t estimate_bits = 0;
    uint64_t half_width_bits = 0;
  };
  std::vector<Last> last;
  std::vector<Record> records;
  std::unique_ptr<SpanLog> log;

  void Fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
};

ServeBench::ServeBench(ServeConfig config, const RunOptions& opts,
                       RunResult* result)
    : config_(std::move(config)),
      opts_(opts),
      result_(result),
      server_seed_(SeedMix(opts.seed, mde::obs::FingerprintString(config_.name))) {
  requests_.resize(static_cast<size_t>(config_.shapes));
  for (int s = 0; s < config_.shapes; ++s) {
    for (const auto& [factor, prob] : config_.ladder) {
      (void)prob;
      requests_[static_cast<size_t>(s)].push_back(MakeRequest(s, factor));
    }
  }
  std::set<std::map<std::string, double>> distinct;
  for (const auto& per_shape : requests_) distinct.insert(per_shape[0].params);
  result_->Check(distinct.size() == requests_.size(),
                 config_.name + ": two shapes bind the same parameters");
}

ServeBench::~ServeBench() = default;

Request ServeBench::MakeRequest(int s, double factor) const {
  const ServeConfig& c = config_;
  Request r;
  r.query = "pv";
  r.params = {{"vol", kVol0 + c.vol_step * static_cast<double>(s % c.vol_mod)},
              {"horizon",
               kHorizon0 + kHorizonStep * static_cast<double>(s % c.horizon_mod)}};
  r.target_half_width =
      factor * (c.target0 + kTargetStep * static_cast<double>(s % c.target_mod));
  r.max_reps = kMaxReps;
  return r;
}

double ServeBench::Setup() {
  sys_.reset();
  records_.clear();
  double secs = 0.0;
  sys_ = Build(&secs);
  return secs;
}

double ServeBench::ProbeSetup() {
  double secs = 0.0;
  Build(&secs);
  return secs;
}

std::unique_ptr<ServeBench::System> ServeBench::Build(double* secs) {
  const uint64_t t0 = NowNs();
  auto sys = std::make_unique<System>();
  sys->db = MakePortfolioDb(config_.model);
  Server::Options o;
  o.seed = server_seed_;
  o.min_reps = kMinReps;
  o.cache.max_bytes = config_.cache_max_bytes;
  sys->server = std::make_unique<Server>(sys->db, o);
  result_->Attempt();
  mde::Status st = sys->server->AddQuery(PortfolioValueQuery());
  if (st.ok()) st = sys->server->Start();
  if (!st.ok()) {
    result_->Fail(config_.name + " setup: " + st.ToString());
    return nullptr;
  }
  // Warm the cache with a fixed amount of work per shape, so set-up time
  // does not depend on how the seed's first draws happen to spread.
  auto session = sys->server->OpenSession("warmup");
  for (const auto& per_shape : requests_) {
    Request warm = per_shape[0];
    warm.target_half_width = 0.0;
    warm.max_reps = kWarmupReps;
    result_->Attempt();
    auto r = session->Execute(warm);
    if (!r.ok()) result_->Fail(config_.name + " warmup: " + r.status().ToString());
  }
  *secs = static_cast<double>(NowNs() - t0) * 1e-9;
  return sys;
}

void ServeBench::RunClient(Client& c, unsigned index, uint64_t deadline_ns,
                           bool traced) {
  // One session per CPU, rotated each slice: sessions contend on the cache
  // the same way in every run instead of as the scheduler places them.
  const ScopedCpuPin pin(index + static_cast<unsigned>(phases_run_));
  Server& server = *sys_->server;
  const auto session = server.OpenSession(
      config_.name + "-" + std::to_string(phases_run_) + "-" +
      std::to_string(index));
  Rng pick(SeedMix(SeedMix(opts_.seed, static_cast<uint64_t>(phases_run_)), index));
  const ZipfPicker shapes(requests_.size(), config_.zipf_s);
  ThreadTrace& trace = CurrentTrace();
  uint64_t turn_start = 0;
  if (traced) {
    trace.log = c.log.get();
    turn_start = c.log->OpenWindow();
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    // One turn of the session: the engine calls nest under it, so its self
    // time is the benchmark's own picks and checks. Turns tile the window
    // (each starts where the last ended): on a hit of a few microseconds,
    // recording the turn's own span is a few percent of the turn.
    ScopedSpan turn("bench.session", Layer::kBench, turn_start);
    if (index == 0 && ++writer_requests_ % config_.advance_every == 0) {
      const uint64_t a0 = NowNs();
      ScopedSpan span("serve.advance", Layer::kServeMvcc, a0);
      const mde::Status st = server.AdvanceVersion();
      const uint64_t a1 = NowNs();
      span.End(a1);
      ++c.advances;
      if (!st.ok()) {
        c.Fail("advance: " + st.ToString());
      } else {
        c.advance_ns.push_back(static_cast<double>(a1 - a0));
      }
      c.bytes_peak = std::max(c.bytes_peak, server.cache().stats().bytes);
      c.live_peak = std::max(c.live_peak, server.chain().live_versions());
    }
    const size_t shape = shapes.Pick(pick);
    const Request& req = requests_[shape][PickLevel(config_.ladder, pick)];
    // One pair of clock reads times the request and bounds its span.
    const uint64_t t0 = NowNs();
    uint64_t t1 = 0;
    mde::Result<Answer> r = [&] {
      ScopedSpan span("serve.request", Layer::kServe, t0);
      mde::Result<Answer> out = session->Execute(req);
      t1 = NowNs();
      if (out.ok()) span.set_flags(Classify(out.value()));
      span.End(t1);
      return out;
    }();
    ++c.requests;
    const double ns = static_cast<double>(t1 - t0);
    if (!r.ok()) {
      c.Fail("request: " + r.status().ToString());
    } else {
      const Answer& a = r.value();
      c.all.Add(ns);
      switch (Classify(a)) {
        case kHit:
          ++c.hits;
          c.hit.Add(ns);
          break;
        case kTopup:
          ++c.topups;
          c.compute.Add(ns);
          break;
        case kMiss:
          ++c.misses;
          c.compute.Add(ns);
          break;
      }
      // Precision contract: the requested half-width, or the rep cap.
      if (!(a.half_width <= req.target_half_width) && a.reps < req.max_reps) {
        c.Fail("precision: half-width " + std::to_string(a.half_width) +
               " > target " + std::to_string(req.target_half_width));
      }
      Client::Last& l = c.last[shape];
      const uint64_t eb = DoubleBits(a.estimate);
      const uint64_t hb = DoubleBits(a.half_width);
      if (l.version == a.version && l.reps == a.reps) {
        if (l.estimate_bits != eb || l.half_width_bits != hb) {
          c.Fail("cross-session drift within one session");
        }
      } else {
        l = {a.version, a.reps, eb, hb};
        c.records.push_back({static_cast<uint32_t>(shape), a.version, a.reps,
                             eb, hb});
      }
    }
    if (t1 >= deadline_ns || (traced && c.log->full())) {
      stop_.store(true, std::memory_order_relaxed);
    }
    if (traced) {
      turn_start = NowNs();
      turn.End(turn_start);
    }
  }
  if (traced) {
    c.log->CloseWindow();
    trace.log = nullptr;
  }
}

void ServeBench::RunPhase(double seconds, bool traced, ServePhase* acc) {
  if (sys_ == nullptr) return;
  Server& server = *sys_->server;
  const unsigned n = std::max(1u, opts_.threads);
  std::vector<Client> clients(n);
  for (unsigned i = 0; i < n; ++i) {
    clients[i].last.resize(requests_.size());
    if (traced) clients[i].log = std::make_unique<SpanLog>(i, kSpanCapacity);
  }
  const mde::serve::CacheStats before = server.cache().stats();
  const uint64_t reclaimed_before = server.chain().reclaimed();

  stop_.store(false);
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  {
    // Client 0 runs on this thread: `threads` threads in total.
    std::vector<std::thread> others;
    for (unsigned i = 1; i < n; ++i) {
      others.emplace_back(
          [this, &clients, i, deadline, traced] {
            RunClient(clients[i], i, deadline, traced);
          });
    }
    RunClient(clients[0], 0, deadline, traced);
    for (std::thread& t : others) t.join();
  }
  acc->wall_s += static_cast<double>(NowNs() - start) * 1e-9;
  ++phases_run_;

  const mde::serve::CacheStats after = server.cache().stats();
  mde::serve::CacheStats& d = acc->cache;
  d.pure_hits += after.pure_hits - before.pure_hits;
  d.topups += after.topups - before.topups;
  d.misses += after.misses - before.misses;
  d.reps_run += after.reps_run - before.reps_run;
  d.reps_saved += after.reps_saved - before.reps_saved;
  d.evictions += after.evictions - before.evictions;
  acc->reclaimed += server.chain().reclaimed() - reclaimed_before;
  for (Client& c : clients) {
    acc->requests += c.requests;
    acc->hits += c.hits;
    acc->topups += c.topups;
    acc->misses += c.misses;
    c.all.AppendTo(&acc->all_ns);
    c.hit.AppendTo(&acc->hit_ns);
    c.compute.AppendTo(&acc->compute_ns);
    acc->advance_ns.insert(acc->advance_ns.end(), c.advance_ns.begin(),
                           c.advance_ns.end());
    acc->bytes_peak = std::max(acc->bytes_peak, c.bytes_peak);
    acc->live_versions_peak = std::max(acc->live_versions_peak, c.live_peak);
    result_->Attempt(c.requests + c.advances);
    if (c.failed > 0) result_->Fail(config_.name + ": " + c.first_failure, c.failed);
    records_.insert(records_.end(), c.records.begin(), c.records.end());
    if (traced) {
      acc->spans.insert(acc->spans.end(), c.log->spans().begin(),
                        c.log->spans().end());
      acc->window_ns += c.log->window_ns();
    }
  }
}

void ServeBench::Audit() {
  if (sys_ == nullptr) return;
  const auto key_less = [](const Record& a, const Record& b) {
    if (a.version != b.version) return a.version < b.version;
    if (a.shape != b.shape) return a.shape < b.shape;
    return a.reps < b.reps;
  };
  std::sort(records_.begin(), records_.end(), key_less);
  // Cross-session consistency: one (shape, version, reps) has one answer.
  std::vector<Record> distinct;
  uint64_t drift = 0;
  for (const Record& r : records_) {
    if (!distinct.empty() && !key_less(distinct.back(), r)) {
      if (distinct.back().estimate_bits != r.estimate_bits ||
          distinct.back().half_width_bits != r.half_width_bits) {
        ++drift;
      }
      continue;
    }
    distinct.push_back(r);
  }
  result_->Fail(config_.name + ": answers differ across sessions", drift);

  // Bit-identity: replay an even sample on a fresh single-threaded server
  // over an identically seeded chain, asking for exactly the same reps.
  mde::simsql::MarkovChainDb db = MakePortfolioDb(config_.model);
  Server fresh(db, sys_->server->options());
  mde::Status st = fresh.AddQuery(PortfolioValueQuery());
  if (st.ok()) st = fresh.Start();
  if (!st.ok()) {
    result_->Attempt();
    result_->Fail(config_.name + " audit setup: " + st.ToString());
    return;
  }
  const auto auditor = fresh.OpenSession("audit");
  const size_t k = std::min(kAudits, distinct.size());
  for (size_t j = 0; j < k; ++j) {
    const Record& want = distinct[j * distinct.size() / k];
    result_->Attempt();
    while (st.ok() && fresh.head_version() < want.version) {
      st = fresh.AdvanceVersion();
    }
    if (!st.ok()) {
      result_->Fail(config_.name + " audit advance: " + st.ToString());
      return;
    }
    Request req = MakeRequest(static_cast<int>(want.shape), 1.0);
    req.version = want.version;
    req.target_half_width = 0.0;
    req.max_reps = want.reps;
    const auto r = auditor->Execute(req);
    if (!r.ok()) {
      result_->Fail(config_.name + " audit: " + r.status().ToString());
    } else if (DoubleBits(r.value().estimate) != want.estimate_bits ||
               DoubleBits(r.value().half_width) != want.half_width_bits) {
      double est = 0.0;
      std::memcpy(&est, &want.estimate_bits, sizeof(est));
      result_->Fail(config_.name + " audit: shape " +
                    std::to_string(want.shape) + " version " +
                    std::to_string(want.version) + " reps " +
                    std::to_string(want.reps) + ": served " +
                    std::to_string(est) + ", a fresh single-threaded server "
                    "gives " + std::to_string(r.value().estimate) + " at " +
                    std::to_string(r.value().reps) + " reps");
    }
  }
  std::printf("{\"diag\":\"%s.audit\",\"answers\":%zu,\"distinct\":%zu,"
              "\"audited\":%zu,\"drift\":%llu}\n",
              config_.name.c_str(), records_.size(), distinct.size(), k,
              static_cast<unsigned long long>(drift));
}

void ServeBench::ReportEndToEnd(ServePhase& p) {
  const std::string& w = config_.name;
  const Summary all = Summarize(&p.all_ns, 0.99);
  const Summary hit = Summarize(&p.hit_ns, 0.99);
  const Summary compute = Summarize(&p.compute_ns, 0.99);
  const Summary advance = Summarize(&p.advance_ns, 0.99);
  RunResult::PrintSummary(w + ".request", all, "us", 1e-3);
  RunResult::PrintSummary(w + ".hit", hit, "us", 1e-3);
  RunResult::PrintSummary(w + ".compute", compute, "us", 1e-3);
  RunResult::PrintSummary(w + ".advance", advance, "us", 1e-3);
  std::printf("{\"diag\":\"%s.mix\",\"requests\":%llu,\"hits\":%llu,"
              "\"topups\":%llu,\"misses\":%llu,\"advances\":%zu,"
              "\"wall_s\":%.3f}\n",
              w.c_str(), static_cast<unsigned long long>(p.requests),
              static_cast<unsigned long long>(p.hits),
              static_cast<unsigned long long>(p.topups),
              static_cast<unsigned long long>(p.misses), advance.n, p.wall_s);
  // A timing is reported only from a sample that supports it.
  result_->Check(all.tail_p >= 0.99 && compute.tail_p >= 0.99,
                 w + ": too few requests for a p99");
  result_->Check(hit.n > kMinBeyond && advance.n > kMinBeyond,
                 w + ": too few hits or advances for a median");
  result_->Add("req_per_s", static_cast<double>(p.requests) / p.wall_s, "1/s");
  result_->Add("req_p50_us", Us(all.p50), "us");
  result_->Add("req_p99_us", Us(all.tail), "us");
  result_->Add("hit_p50_us", Us(hit.p50), "us");
  result_->Add("compute_p50_us", Us(compute.p50), "us");
  result_->Add("compute_p99_us", Us(compute.tail), "us");
  result_->Add("advance_p50_us", Us(advance.p50), "us");
}

void ServeBench::ReportLayers(ServePhase& untraced, ServePhase& traced) {
  const std::vector<Span>& spans = traced.spans;
  const std::vector<uint64_t> self = SelfTimes(spans);
  result_->Add("serve.hit_us_p50",
               Us(SpanMedianNs(spans, nullptr, "serve.request", IsHit)), "us");
  result_->Add("serve.compute_self_us_p50",
               Us(SpanMedianNs(spans, &self, "serve.request", IsCompute)),
               "us");
  result_->Add("serve.eval_us_p50", Us(SpanMedianNs(spans, nullptr, "pv.eval")),
               "us");
  const mde::serve::CacheStats& d = traced.cache;
  const double hits = static_cast<double>(d.pure_hits);
  const double topups = static_cast<double>(d.topups);
  const double misses = static_cast<double>(d.misses);
  const double run = static_cast<double>(d.reps_run);
  const double saved = static_cast<double>(d.reps_saved);
  const double total = std::max(1.0, hits + topups + misses);
  result_->Add("serve.reps_per_compute", run / std::max(1.0, topups + misses),
               "reps/req");
  result_->Add("cache.hit_ratio", hits / total, "ratio");
  result_->Add("cache.topup_ratio", topups / total, "ratio");
  result_->Add("cache.miss_ratio", misses / total, "ratio");
  // Counts are per request (per advance for reclaims), so traced phases
  // of different lengths compare.
  result_->Add("cache.reps_run", run / total, "reps/req");
  result_->Add("cache.reps_saved_ratio", saved / std::max(1.0, saved + run),
               "ratio");
  result_->Add("cache.evictions",
               static_cast<double>(d.evictions) / total, "1/req");
  result_->Add("cache.bytes_peak", static_cast<double>(traced.bytes_peak),
               "bytes");
  result_->Add("mvcc.advance_self_us_p50",
               Us(SpanMedianNs(spans, &self, "serve.advance")), "us");
  result_->Add("mvcc.live_versions_peak",
               static_cast<double>(traced.live_versions_peak), "count");
  result_->Add("mvcc.reclaimed",
               static_cast<double>(traced.reclaimed) /
                   std::max<size_t>(1, traced.advance_ns.size()),
               "1/advance");
  result_->Add("simsql.transition_us_p50",
               Us(SpanMedianNs(spans, nullptr, "chain.transition")), "us");
  AddLayerSplit(spans, self, traced.window_ns,
                {Layer::kServe, Layer::kServeMvcc, Layer::kSimsql, Layer::kMcdb,
                 Layer::kBench},
                config_.name, result_);
  const double wall = static_cast<double>(traced.window_ns);
  // Thread-time per request, traced over untraced.
  const double untraced_per_req =
      untraced.wall_s * opts_.threads / std::max<uint64_t>(1, untraced.requests);
  const double traced_per_req =
      wall * 1e-9 / std::max<uint64_t>(1, traced.requests);
  result_->Add("obs.trace_overhead_ratio", traced_per_req / untraced_per_req,
               "ratio");
  if (!opts_.trace_path.empty()) {
    WriteChromeTrace(opts_.trace_path, spans, 50000);
  }
}

}  // namespace perfbench
