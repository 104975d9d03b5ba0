#include "obs/stat.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace mde::obs {

namespace {

/// Resolves a gauge handle, or nullptr for the empty name.
Gauge* MaybeGauge(const std::string& name) {
  if (!name.empty()) return Registry::Global().gauge(name);
  return nullptr;
}

}  // namespace

P2Quantile::P2Quantile(double p) : p_(p) {
  for (int i = 0; i < 5; ++i) {
    q_[i] = 0.0;
    pos_[i] = static_cast<double>(i + 1);
  }
  des_[0] = 1.0;
  des_[1] = 1.0 + 2.0 * p;
  des_[2] = 1.0 + 4.0 * p;
  des_[3] = 3.0 + 2.0 * p;
  des_[4] = 5.0;
  inc_[0] = 0.0;
  inc_[1] = p / 2.0;
  inc_[2] = p;
  inc_[3] = (1.0 + p) / 2.0;
  inc_[4] = 1.0;
}

void P2Quantile::Add(double x) {
  if (n_ < 5) {
    q_[n_++] = x;
    if (n_ == 5) std::sort(q_, q_ + 5);
    return;
  }
  // Locate the cell and update the extreme markers.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  ++n_;
  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) des_[i] += inc_[i];
  // Adjust the interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = des_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) height prediction.
      const double qp =
          q_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - s) * (q_[i] - q_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (q_[i - 1] < qp && qp < q_[i + 1]) {
        q_[i] = qp;
      } else {
        // Parabolic prediction would break monotonicity: fall back linear.
        const int j = i + static_cast<int>(s);
        q_[i] += s * (q_[j] - q_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

P2Quantile::State P2Quantile::state() const {
  State s;
  s.n = n_;
  for (int i = 0; i < 5; ++i) {
    s.q[i] = q_[i];
    s.pos[i] = pos_[i];
    s.des[i] = des_[i];
  }
  return s;
}

void P2Quantile::set_state(const State& s) {
  n_ = s.n;
  for (int i = 0; i < 5; ++i) {
    q_[i] = s.q[i];
    pos_[i] = s.pos[i];
    des_[i] = s.des[i];
  }
  // inc_ is a pure function of p and is untouched by Add; nothing to
  // restore.
}

double P2Quantile::Value() const {
  if (n_ == 0) return 0.0;
  if (n_ <= 5) {
    // Exact small-sample quantile over the sorted prefix. n == 5 included:
    // at that point the markers ARE the sorted sample but have not adapted
    // toward p yet, so the middle marker q_[2] would be returned for every
    // p — garbage for tail quantiles (p = 0.05 of {1,3,5,7,9} is ~1.4, not
    // 5). Interpolating the sorted sample is exact there.
    double sorted[5];
    std::copy(q_, q_ + n_, sorted);
    std::sort(sorted, sorted + n_);
    const double rank = p_ * static_cast<double>(n_ - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min<size_t>(lo + 1, n_ - 1);
    return sorted[lo] + (rank - static_cast<double>(lo)) *
                            (sorted[hi] - sorted[lo]);
  }
  return q_[2];
}

ConvergenceMonitor::ConvergenceMonitor(const std::string& name, size_t window,
                                       double rel_tol, double diverge_factor)
    : window_(window),
      rel_tol_(rel_tol),
      diverge_factor_(diverge_factor),
      verdict_gauge_(MaybeGauge(name.empty() ? "" : "obs.health." + name)),
      loss_gauge_(MaybeGauge(name.empty() ? "" : name + ".loss")) {}

ConvergenceMonitor::Verdict ConvergenceMonitor::Add(double loss) {
  ++n_;
  // Divergence is sticky: once a solve blows up it stays failed.
  if (verdict_ != Verdict::kDiverged) {
    if (!std::isfinite(loss) ||
        (n_ > 1 && loss > diverge_factor_ * best_ + 1e-9)) {
      verdict_ = Verdict::kDiverged;
    } else {
      if (n_ == 1 || loss < best_ * (1.0 - rel_tol_)) {
        best_ = loss;
        since_improvement_ = 0;
      } else {
        ++since_improvement_;
      }
      verdict_ = since_improvement_ >= window_ ? Verdict::kStalled
                                               : Verdict::kImproving;
    }
  }
  Publish(loss);
  return verdict_;
}

void ConvergenceMonitor::Publish(double loss) {
  if (verdict_gauge_ != nullptr) {
    verdict_gauge_->Set(static_cast<double>(verdict_));
    loss_gauge_->Set(loss);
  }
}

const char* ConvergenceMonitor::VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kImproving:
      return "improving";
    case Verdict::kStalled:
      return "stalled";
    case Verdict::kDiverged:
      return "diverged";
  }
  return "unknown";
}

}  // namespace mde::obs
