#include "dsgd/dsgd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "ckpt/snapshot.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/stat.h"
#include "obs/trace.h"
#include "util/check.h"

namespace mde::dsgd {

double SparseRow::Dot(const std::vector<double>& x) const {
  double s = 0.0;
  for (const auto& [j, a] : entries) s += a * x[j];
  return s;
}

double ResidualNorm(const std::vector<SparseRow>& rows,
                    const std::vector<double>& x) {
  double ss = 0.0;
  for (const SparseRow& r : rows) {
    const double e = r.Dot(x) - r.b;
    ss += e * e;
  }
  return std::sqrt(ss);
}

namespace {

/// One downhill step on row `r`. `m` is the total row count (the paper's
/// gradient-scale factor for the kSgd rule); `eps` is the current step size.
inline void Step(const SparseRow& r, StepRule rule, double eps, double m,
                 std::vector<double>& x) {
  const double err = r.Dot(x) - r.b;
  if (rule == StepRule::kSgd) {
    // grad L_I(x) = 2 (a.x - b) a; overall gradient approximated by m*grad.
    const double scale = eps * 2.0 * m * err;
    for (const auto& [j, a] : r.entries) x[j] -= scale * a;
  } else {
    double norm2 = 0.0;
    for (const auto& [j, a] : r.entries) norm2 += a * a;
    if (norm2 == 0.0) return;
    const double scale = eps * err / norm2;
    for (const auto& [j, a] : r.entries) x[j] -= scale * a;
  }
}

inline double StepSize(const SgdOptions& opt, size_t n) {
  if (opt.rule == StepRule::kKaczmarz) return opt.step0;
  return opt.step0 * std::pow(static_cast<double>(n + 1), -opt.alpha);
}

}  // namespace

SgdResult SolveSgd(const std::vector<SparseRow>& rows, size_t dim,
                   const SgdOptions& options) {
  MDE_CHECK(!rows.empty());
  Rng rng(options.seed);
  SgdResult result;
  result.x.assign(dim, 0.0);
  const double m = static_cast<double>(rows.size());
  for (size_t n = 0; n < options.iterations; ++n) {
    const size_t i = rng.NextBounded(rows.size());
    Step(rows[i], options.rule, StepSize(options, n), m, result.x);
    ++result.updates;
    if (options.trace_every > 0 && (n + 1) % options.trace_every == 0) {
      result.residual_trace.push_back(ResidualNorm(rows, result.x));
    }
  }
  result.residual = ResidualNorm(rows, result.x);
  return result;
}

std::vector<SparseRow> RowsFromTridiagonal(const linalg::Tridiagonal& a,
                                           const linalg::Vector& b) {
  const size_t n = a.size();
  MDE_CHECK_EQ(b.size(), n);
  std::vector<SparseRow> rows(n);
  for (size_t i = 0; i < n; ++i) {
    SparseRow& r = rows[i];
    if (i > 0) r.entries.push_back({i - 1, a.lower[i - 1]});
    r.entries.push_back({i, a.diag[i]});
    if (i + 1 < n) r.entries.push_back({i + 1, a.upper[i]});
    r.b = b[i];
  }
  return rows;
}

std::vector<std::vector<size_t>> TridiagonalStrata(size_t num_rows) {
  std::vector<std::vector<size_t>> strata(std::min<size_t>(3, num_rows));
  for (size_t i = 0; i < num_rows; ++i) {
    strata[i % strata.size()].push_back(i);
  }
  return strata;
}

bool StrataAreConflictFree(const std::vector<SparseRow>& rows,
                           const std::vector<std::vector<size_t>>& strata) {
  for (const auto& stratum : strata) {
    std::unordered_set<size_t> touched;
    for (size_t ri : stratum) {
      for (const auto& [j, a] : rows[ri].entries) {
        (void)a;
        if (!touched.insert(j).second) return false;
      }
    }
  }
  return true;
}

DsgdRun::DsgdRun(const std::vector<SparseRow>& rows, size_t dim,
                 const std::vector<std::vector<size_t>>& strata,
                 ThreadPool& pool, const DsgdOptions& options)
    : rows_(rows),
      dim_(dim),
      strata_(strata),
      pool_(pool),
      options_(options),
      rng_(options.sgd.seed),
      health_("dsgd") {
  MDE_CHECK(!rows.empty());
  MDE_CHECK(!strata.empty());
  result_.x.assign(dim, 0.0);
  // Regenerative stratum schedule: each cycle visits every stratum exactly
  // once in (optionally random) order, so equal time is spent in each
  // stratum in the long run — the condition for w.p.-1 convergence.
  order_.resize(strata.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  uint64_t fp = obs::FingerprintString("dsgd.run");
  fp = obs::FingerprintMix(fp, dim);
  fp = obs::FingerprintMix(fp, strata.size());
  fp = obs::FingerprintMix(fp, options.rounds);
  fingerprint_ = obs::FingerprintMix(fp, options.sgd.seed);
}

Status DsgdRun::StepOnce() {
  if (Done()) return Status::FailedPrecondition("dsgd: already finished");
  // Per-round attribution root: the per-stratum worker tasks inherit this
  // context through ThreadPool::Submit.
  MDE_OBS_QUERY_SCOPE("dsgd.run", fingerprint_);
  // Fault point before any mutation: a throw here leaves the run exactly
  // at the last round boundary, so restore + replay is bit-identical.
  MDE_FAULT_POINT("dsgd.round");
  const size_t round = round_;
  if (round % strata_.size() == 0 && options_.random_stratum_order) {
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.NextBounded(i)]);
    }
  }
  const auto& stratum = strata_[order_[round % strata_.size()]];
  if (stratum.empty()) {
    ++round_;
    return Status::OK();
  }
  MDE_TRACE_SPAN("dsgd.stratum_visit");
  MDE_OBS_COUNT("dsgd.stratum_visits", 1);
  const size_t visit_updates = options_.updates_per_visit == 0
                                   ? stratum.size()
                                   : options_.updates_per_visit;
  // Within a stratum no two rows share an unknown, so the stratum's rows
  // can be partitioned across workers and updated in parallel with no
  // locks and no data shuffling. Worker RNGs are derived per (round,
  // worker), never carried across rounds — the checkpoint only needs the
  // schedule RNG.
  const size_t workers = pool_.num_threads();
  const double m = static_cast<double>(rows_.size());
  const double eps = StepSize(options_.sgd, global_updates_);
  std::vector<Rng> worker_rngs;
  worker_rngs.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    worker_rngs.push_back(Rng::Substream(options_.sgd.seed + round, w));
  }
  pool_.ParallelFor(workers, [&](size_t w) {
    Rng& wr = worker_rngs[w];
    // Worker w owns the contiguous block of the stratum's rows.
    const size_t per = (stratum.size() + workers - 1) / workers;
    const size_t lo = std::min(stratum.size(), w * per);
    const size_t hi = std::min(stratum.size(), lo + per);
    if (lo >= hi) return;
    const size_t updates =
        (visit_updates * (hi - lo) + stratum.size() - 1) / stratum.size();
    for (size_t u = 0; u < updates; ++u) {
      const size_t idx = lo + wr.NextBounded(hi - lo);
      Step(rows_[stratum[idx]], options_.sgd.rule, eps, m, result_.x);
    }
  });
  global_updates_ += visit_updates;
  result_.updates += visit_updates;
  MDE_OBS_COUNT("dsgd.updates", visit_updates);
  if (options_.sgd.trace_every > 0 &&
      (round + 1) % options_.sgd.trace_every == 0) {
    const double res = ResidualNorm(rows_, result_.x);
    result_.residual_trace.push_back(res);
    MDE_OBS_GAUGE_SET("dsgd.epoch_loss", res);
    health_.Add(res);
  }
  ++round_;
  return Status::OK();
}

Result<std::string> DsgdRun::Save() const {
  ckpt::SnapshotWriter snap(engine_name());
  ckpt::SectionWriter* s = snap.AddSection("state");
  s->PutU64(round_);
  s->PutU64(global_updates_);
  s->PutRngState(rng_.state());
  s->PutSizeVec(order_);
  s->PutDoubleVec(result_.x);
  s->PutU64(result_.updates);
  s->PutDoubleVec(result_.residual_trace);
  const obs::ConvergenceMonitor::State h = health_.state();
  s->PutU64(h.n);
  s->PutDouble(h.best);
  s->PutU64(h.since_improvement);
  s->PutU8(h.verdict);
  return snap.Finish();
}

Status DsgdRun::Restore(const std::string& snapshot) {
  MDE_ASSIGN_OR_RETURN(ckpt::SnapshotReader snap,
                       ckpt::SnapshotReader::Parse(snapshot));
  if (snap.engine() != engine_name()) {
    return Status::InvalidArgument("checkpoint is for engine '" +
                                   snap.engine() + "', not dsgd");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader s, snap.section("state"));
  round_ = s.U64();
  global_updates_ = s.U64();
  rng_.set_state(s.RngState());
  order_ = s.SizeVec();
  result_.x = s.DoubleVec();
  result_.updates = s.U64();
  result_.residual_trace = s.DoubleVec();
  obs::ConvergenceMonitor::State h;
  h.n = s.U64();
  h.best = s.Double();
  h.since_improvement = s.U64();
  h.verdict = s.U8();
  MDE_RETURN_NOT_OK(s.ExpectEnd());
  if (order_.size() != strata_.size() || result_.x.size() != dim_) {
    return Status::InvalidArgument(
        "dsgd checkpoint does not match this problem");
  }
  health_.set_state(h);
  return Status::OK();
}

SgdResult DsgdRun::Finish() {
  result_.residual = ResidualNorm(rows_, result_.x);
  MDE_OBS_GAUGE_SET("dsgd.epoch_loss", result_.residual);
  health_.Add(result_.residual);
  return result_;
}

SgdResult SolveDsgd(const std::vector<SparseRow>& rows, size_t dim,
                    const std::vector<std::vector<size_t>>& strata,
                    ThreadPool& pool, const DsgdOptions& options) {
  DsgdRun run(rows, dim, strata, pool, options);
  while (!run.Done()) {
    const Status st = run.StepOnce();
    MDE_CHECK_MSG(st.ok(), st.message().c_str());
  }
  return run.Finish();
}

SgdResult SolveTridiagonalDsgd(const linalg::Tridiagonal& a,
                               const linalg::Vector& b, ThreadPool& pool,
                               const DsgdOptions& options) {
  const auto rows = RowsFromTridiagonal(a, b);
  const auto strata = TridiagonalStrata(rows.size());
  return SolveDsgd(rows, a.size(), strata, pool, options);
}

}  // namespace mde::dsgd
