#ifndef MDE_OBS_STAT_H_
#define MDE_OBS_STAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Statistical health monitors for the mde engine — the paper's central
/// claim made operational: estimator quality (CLT half-widths, effective
/// sample sizes, convergence of iterative solvers) is a first-class,
/// queryable runtime signal, not something recomputed offline. MCDB's
/// result caching resamples until a CLT half-width target is met, SimSQL
/// diagnoses its database-valued chains, and the particle filter triggers
/// resampling off the ESS; the classes here are the lock-free single-writer
/// estimators those decisions read, publishing their current value into the
/// global metrics registry as gauges so the Sampler/exporters (obs/export.h)
/// can watch them over time.
///
/// Threading model: each monitor instance has ONE writer (the engine loop
/// that owns it). Publication goes through Gauge::Set (a relaxed atomic
/// store), so concurrent readers — the Sampler thread, exporters — are
/// safe. None of this is read back by the engine: determinism-neutral by
/// the same write-only discipline as the rest of mde::obs.
namespace mde::obs {

class Gauge;

/// Welford online mean/variance (numerically stable; Chan et al. Merge for
/// combining parallel partials).
class Welford {
 public:
  void Add(double x);
  void Merge(const Welford& other);

  uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when n < 2.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 when n < 2.
  double std_error() const;

  /// Complete accumulator state, for checkpoint serialization (src/ckpt):
  /// restoring it and continuing the stream is bit-identical to never
  /// having stopped.
  struct State {
    uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
  };
  State state() const { return {n_, mean_, m2_}; }
  void set_state(const State& s) {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
  }

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

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

  /// Complete marker state (checkpoint serialization; see Welford::State).
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

/// Running CLT confidence half-width monitor: feeds a Welford accumulator
/// and exposes half_width = z * s / sqrt(n) — the quantity MCDB's Fig. 2
/// result-caching loop drives to a target before trusting a cached Monte
/// Carlo answer. When constructed with a gauge name, every Add publishes
/// the current half-width to that gauge (plus `<name>.n` observations) so
/// the shrinking interval is visible in sampled time series.
class CiMonitor {
 public:
  /// `gauge_name` may be empty (no publication). `z` is the two-sided
  /// normal critical value; the default 1.959964 is the 95% level.
  explicit CiMonitor(const std::string& gauge_name = "", double z = 1.959964);

  void Add(double x);
  uint64_t count() const { return stat_.count(); }
  double mean() const { return stat_.mean(); }
  /// z * stddev / sqrt(n). With n < 2 observations no CLT bound exists, so
  /// the half-width is +infinity — NOT zero: a one-draw "estimate" that
  /// claimed zero error would satisfy any precision target, which is
  /// exactly how a result cache gets poisoned. Gauge publication stays
  /// finite (nothing is published until n >= 2).
  double half_width() const;
  const Welford& stat() const { return stat_; }

  /// Checkpoint serialization: the underlying Welford state is the whole
  /// mutable state (gauges are re-resolved from the constructor name).
  Welford::State state() const { return stat_.state(); }
  void set_state(const Welford::State& s) { stat_.set_state(s); }

 private:
  Welford stat_;
  double z_;
  Gauge* gauge_ = nullptr;    // current half-width
  Gauge* n_gauge_ = nullptr;  // observation count
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
