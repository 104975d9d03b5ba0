#include "smc/particle_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ckpt/fault.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stats.h"

namespace mde::smc {

ParticleFilter::ParticleFilter(const StateSpaceModel& model,
                               const ParticleFilterOptions& options)
    : model_(model), options_(options), rng_(options.seed) {
  MDE_CHECK_GT(options.num_particles, 0u);
  fingerprint_ = obs::FingerprintMix(
      obs::FingerprintMix(obs::FingerprintString("smc.filter"),
                          options.num_particles),
      options.seed);
}

Rng ParticleFilter::ParticleRng(size_t step, size_t i) const {
  // Rng::Keyed's mix with the step folded in gives every (step, particle)
  // pair a private stream, so the propagate/weight loop parallelizes over
  // particles with output independent of thread count (and of pool
  // presence).
  return Rng(options_.seed ^ (0x9e3779b97f4a7c15ULL + i * 2654435761ULL +
                              step * 0x100000001b3ULL));
}

void ParticleFilter::RunParticleChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) const {
  if (options_.pool != nullptr) {
    options_.pool->ParallelForChunks(n, /*grain=*/0, fn);
  } else {
    fn(0, 0, n);
  }
}

Status ParticleFilter::Initialize(const Observation& y1) {
  // Attribution root for the initial sweep; the chunk tasks submitted by
  // RunParticleChunks inherit this context across steals.
  MDE_OBS_QUERY_SCOPE("smc.filter", fingerprint_);
  const size_t n = options_.num_particles;
  particles_.assign(n, State{});
  std::vector<double> log_w(n);
  step_count_ = 0;
  RunParticleChunks(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Rng rng = ParticleRng(0, i);
      particles_[i] = model_.SampleInitial(y1, rng);
      log_w[i] = model_.LogObservation(y1, particles_[i]) +
                 model_.LogInitialRatio(y1, particles_[i]);
    }
  });
  initialized_ = true;
  return WeighAndMaybeResample(log_w);
}

Status ParticleFilter::Step(const Observation& y) {
  MDE_OBS_QUERY_SCOPE("smc.filter", fingerprint_);
  MDE_TRACE_SPAN("smc.pf_step");
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize first");
  }
  const size_t n = options_.num_particles;
  ++step_count_;
  std::vector<State> next(n);
  std::vector<double> log_w(n);
  RunParticleChunks(n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Rng rng = ParticleRng(step_count_, i);
      State x = model_.SampleProposal(y, particles_[i], rng);
      log_w[i] = std::log(std::max(weights_[i], 1e-300)) +
                 model_.LogObservation(y, x) +
                 model_.LogTransitionRatio(y, x, particles_[i]);
      next[i] = std::move(x);
    }
  });
  particles_ = std::move(next);
  return WeighAndMaybeResample(log_w);
}

Status ParticleFilter::WeighAndMaybeResample(
    const std::vector<double>& log_weights) {
  const size_t n = options_.num_particles;
  // Marginal-likelihood increment: log mean of unnormalized weights
  // relative to the previous normalized weights.
  const double mx =
      *std::max_element(log_weights.begin(), log_weights.end());
  FilterStepStats stats;
  if (!std::isfinite(mx)) {
    return Status::NumericError("particle filter weight collapse");
  }
  double sum = 0.0;
  for (double lw : log_weights) sum += std::exp(lw - mx);
  stats.log_likelihood_increment =
      mx + std::log(sum);  // note: relative to prior normalized weights
  MDE_ASSIGN_OR_RETURN(weights_, NormalizedFromLog(log_weights));
  stats.ess = EffectiveSampleSize(weights_);
  MDE_OBS_COUNT("smc.steps", 1);
  MDE_OBS_GAUGE_SET("smc.ess", stats.ess);
  if (stats.ess <
      options_.ess_threshold * static_cast<double>(n) + 1e-12) {
    MDE_TRACE_SPAN("smc.resample");
    MDE_OBS_COUNT("smc.resamples", 1);
    MDE_OBS_COUNT("smc.resampled_particles", n);
    const std::vector<size_t> idx =
        ResampleIndices(weights_, n, options_.resample, rng_);
    std::vector<State> resampled;
    resampled.reserve(n);
    for (size_t a : idx) resampled.push_back(particles_[a]);
    particles_ = std::move(resampled);
    weights_.assign(n, 1.0 / static_cast<double>(n));
    stats.resampled = true;
  }
  stats_.push_back(stats);
  return Status::OK();
}

State ParticleFilter::MeanState() const {
  MDE_CHECK(!particles_.empty());
  State mean(particles_[0].size(), 0.0);
  for (size_t i = 0; i < particles_.size(); ++i) {
    for (size_t k = 0; k < mean.size(); ++k) {
      mean[k] += weights_[i] * particles_[i][k];
    }
  }
  return mean;
}

double ParticleFilter::TotalLogLikelihood() const {
  double total = 0.0;
  for (const FilterStepStats& s : stats_) {
    total += s.log_likelihood_increment;
  }
  return total;
}

void ParticleFilter::SaveState(ckpt::SectionWriter* s) const {
  s->PutBool(initialized_);
  s->PutU64(step_count_);
  s->PutRngState(rng_.state());
  s->PutU64(particles_.size());
  for (const State& p : particles_) s->PutDoubleVec(p);
  s->PutDoubleVec(weights_);
  s->PutU64(stats_.size());
  for (const FilterStepStats& st : stats_) {
    s->PutDouble(st.ess);
    s->PutBool(st.resampled);
    s->PutDouble(st.log_likelihood_increment);
  }
}

Status ParticleFilter::RestoreState(ckpt::SectionReader* s) {
  const bool initialized = s->Bool();
  const uint64_t step_count = s->U64();
  const Rng::State rng_state = s->RngState();
  const uint64_t np = s->U64();
  std::vector<State> particles;
  particles.reserve(np);
  for (uint64_t i = 0; i < np && s->status().ok(); ++i) {
    particles.push_back(s->DoubleVec());
  }
  std::vector<double> weights = s->DoubleVec();
  const uint64_t ns = s->U64();
  std::vector<FilterStepStats> stats;
  stats.reserve(ns);
  for (uint64_t i = 0; i < ns && s->status().ok(); ++i) {
    FilterStepStats st;
    st.ess = s->Double();
    st.resampled = s->Bool();
    st.log_likelihood_increment = s->Double();
    stats.push_back(st);
  }
  MDE_RETURN_NOT_OK(s->status());
  if (initialized && (particles.size() != options_.num_particles ||
                      weights.size() != options_.num_particles)) {
    return Status::InvalidArgument(
        "particle-filter checkpoint does not match num_particles");
  }
  initialized_ = initialized;
  step_count_ = step_count;
  rng_.set_state(rng_state);
  particles_ = std::move(particles);
  weights_ = std::move(weights);
  stats_ = std::move(stats);
  return Status::OK();
}

Result<std::string> ParticleFilter::SaveSnapshot() const {
  ckpt::SnapshotWriter snap("particle_filter");
  SaveState(snap.AddSection("filter"));
  return snap.Finish();
}

Status ParticleFilter::RestoreSnapshot(const std::string& snapshot) {
  MDE_ASSIGN_OR_RETURN(ckpt::SnapshotReader snap,
                       ckpt::SnapshotReader::Parse(snapshot));
  if (snap.engine() != "particle_filter") {
    return Status::InvalidArgument("checkpoint is for engine '" +
                                   snap.engine() + "', not particle_filter");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader s, snap.section("filter"));
  MDE_RETURN_NOT_OK(RestoreState(&s));
  return s.ExpectEnd();
}

FilterRun::FilterRun(const StateSpaceModel& model,
                     std::vector<Observation> observations,
                     const ParticleFilterOptions& options)
    : observations_(std::move(observations)), filter_(model, options) {}

Status FilterRun::StepOnce() {
  if (Done()) {
    return Status::FailedPrecondition("particle filter: already finished");
  }
  // Fault point before the filter mutates: restore replays this
  // observation exactly.
  MDE_FAULT_POINT("smc.step");
  const size_t i = next_obs_;
  if (i == 0) {
    MDE_RETURN_NOT_OK(filter_.Initialize(observations_[0]));
  } else {
    MDE_RETURN_NOT_OK(filter_.Step(observations_[i]));
  }
  ++next_obs_;
  return Status::OK();
}

Result<std::string> FilterRun::Save() const {
  ckpt::SnapshotWriter snap(engine_name());
  ckpt::SectionWriter* r = snap.AddSection("run");
  r->PutU64(next_obs_);
  r->PutU64(observations_.size());
  filter_.SaveState(snap.AddSection("filter"));
  return snap.Finish();
}

Status FilterRun::Restore(const std::string& snapshot) {
  MDE_ASSIGN_OR_RETURN(ckpt::SnapshotReader snap,
                       ckpt::SnapshotReader::Parse(snapshot));
  if (snap.engine() != engine_name()) {
    return Status::InvalidArgument("checkpoint is for engine '" +
                                   snap.engine() + "', not particle_filter");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader r, snap.section("run"));
  const uint64_t next_obs = r.U64();
  const uint64_t total_obs = r.U64();
  MDE_RETURN_NOT_OK(r.ExpectEnd());
  if (total_obs != observations_.size() ||
      next_obs > observations_.size()) {
    return Status::InvalidArgument(
        "particle-filter checkpoint is for a different observation "
        "sequence");
  }
  MDE_ASSIGN_OR_RETURN(ckpt::SectionReader f, snap.section("filter"));
  MDE_RETURN_NOT_OK(filter_.RestoreState(&f));
  MDE_RETURN_NOT_OK(f.ExpectEnd());
  next_obs_ = next_obs;
  return Status::OK();
}

KernelDensity::KernelDensity(std::vector<double> samples, double bandwidth,
                             Kernel kernel)
    : samples_(std::move(samples)), kernel_(kernel) {
  MDE_CHECK(!samples_.empty());
  h_ = bandwidth > 0.0 ? bandwidth : SilvermanBandwidth(samples_);
  if (h_ <= 0.0) h_ = 1e-3;  // degenerate (constant) samples
}

double KernelDensity::Density(double x) const {
  const double m = static_cast<double>(samples_.size());
  double total = 0.0;
  for (double xi : samples_) {
    const double u = (x - xi) / h_;
    if (kernel_ == Kernel::kGaussian) {
      total += std::exp(-0.5 * u * u) / std::sqrt(2.0 * M_PI);
    } else {
      total += 0.5 * std::exp(-std::fabs(u));
    }
  }
  return total / (m * h_);
}

double KernelDensity::LogDensity(double x) const {
  return std::log(std::max(Density(x), 1e-300));
}

double KernelDensity::SilvermanBandwidth(const std::vector<double>& samples) {
  const double sd = StdDev(samples);
  const double n = static_cast<double>(samples.size());
  return 1.06 * sd * std::pow(n, -0.2);
}

}  // namespace mde::smc
