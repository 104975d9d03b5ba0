#ifndef MDE_OBS_STAT_H_
#define MDE_OBS_STAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Statistical health monitors for the mde engine — the paper's central
/// claim made operational: estimator quality is a first-class, queryable
/// runtime signal, not something recomputed offline. The CLT half-width
/// that MCDB's result caching drives to a target is RunningStat's
/// (util/stats.h); the classes here are the other single-writer monitors:
/// streaming quantile sketches for Monte Carlo outputs and a convergence
/// verdict for iterative solvers, publishing their current value into the
/// global metrics registry as gauges so the Sampler/exporters
/// (obs/export.h) can watch them over time.
///
/// Threading model: each monitor instance has ONE writer (the engine loop
/// that owns it). Publication goes through Gauge::Set (a relaxed atomic
/// store), so concurrent readers — the Sampler thread, exporters — are
/// safe. None of this is read back by the engine: determinism-neutral by
/// the same write-only discipline as the rest of mde::obs.
namespace mde::obs {

class Gauge;

/// P² (Jain & Chlamtac 1985) single-quantile sketch: tracks the running
/// p-quantile of a stream in O(1) memory — five markers adjusted by
/// piecewise-parabolic interpolation — without storing the observations.
/// Exact for the first five values, then an estimate whose error shrinks as
/// the stream grows.
class P2Quantile {
 public:
  /// `p` in (0, 1), e.g. 0.5 for the median, 0.95 for the tail.
  explicit P2Quantile(double p);

  void Add(double x);
  uint64_t count() const { return n_; }
  double p() const { return p_; }
  /// Current quantile estimate (0 before any observation).
  double Value() const;

  /// Complete marker state, for checkpoints: restoring it and continuing
  /// the stream is bit-identical to never having stopped.
  struct State {
    uint64_t n = 0;
    double q[5] = {};
    double pos[5] = {};
    double des[5] = {};
  };
  State state() const;
  void set_state(const State& s);

 private:
  double p_;
  uint64_t n_ = 0;
  double q_[5];   // marker heights
  double pos_[5]; // marker positions (1-based counts)
  double des_[5]; // desired positions
  double inc_[5]; // desired-position increments per observation
};

/// Stall/divergence detector for iterative solvers (DSGD epoch losses,
/// calibration objectives): feed one loss value per epoch; the verdict is
///
///   kImproving  best loss improved by > rel_tol within the last `window`
///               observations,
///   kStalled    no such improvement over a full window,
///   kDiverged   loss went non-finite or exceeded diverge_factor * best.
///
/// A diverged verdict is sticky (the solve is considered failed even if a
/// later epoch recovers). With a gauge name, every Add publishes the
/// verdict (as 0/1/2) to `obs.health.<name>` and the loss to
/// `<name>.loss` — the run-report tool grades runs off these gauges.
class ConvergenceMonitor {
 public:
  enum class Verdict { kImproving = 0, kStalled = 1, kDiverged = 2 };

  explicit ConvergenceMonitor(const std::string& name = "",
                              size_t window = 10, double rel_tol = 1e-4,
                              double diverge_factor = 10.0);

  Verdict Add(double loss);
  Verdict verdict() const { return verdict_; }
  uint64_t count() const { return n_; }
  double best() const { return best_; }

  static const char* VerdictName(Verdict v);

  /// Checkpoint serialization (window/tolerances are construction config).
  struct State {
    uint64_t n = 0;
    double best = 0.0;
    uint64_t since_improvement = 0;
    uint8_t verdict = 0;
  };
  State state() const {
    return {n_, best_, since_improvement_, static_cast<uint8_t>(verdict_)};
  }
  void set_state(const State& s) {
    n_ = s.n;
    best_ = s.best;
    since_improvement_ = s.since_improvement;
    verdict_ = static_cast<Verdict>(s.verdict);
  }

 private:
  void Publish(double loss);

  size_t window_;
  double rel_tol_;
  double diverge_factor_;
  uint64_t n_ = 0;
  double best_ = 0.0;
  /// Observations since the last > rel_tol improvement of the best loss.
  size_t since_improvement_ = 0;
  Verdict verdict_ = Verdict::kImproving;
  Gauge* verdict_gauge_ = nullptr;
  Gauge* loss_gauge_ = nullptr;
};

}  // namespace mde::obs

#endif  // MDE_OBS_STAT_H_
