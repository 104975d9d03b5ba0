#ifndef PERFBENCH_SERVE_WORKLOADS_H_
#define PERFBENCH_SERVE_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "portfolio.h"
#include "result.h"
#include "serve/server.h"
#include "spans.h"

/// The serve workloads: closed-loop client sessions (one thread each, at
/// most `RunOptions::threads` of them) asking the portfolio query at mixed
/// precision targets, while client 0 also advances the chain every
/// `advance_every` of its own requests.
namespace perfbench {

struct ServeConfig {
  std::string name;
  PortfolioModel model;
  /// Request shapes: shape s binds vol = 0.5 + vol_step * (s % vol_mod),
  /// horizon = 4 + 2 * (s % horizon_mod), and asks for
  /// target0 + (s % target_mod) before tightening. Every shape must bind
  /// distinct parameters (checked): shapes sharing a cache key would
  /// confuse the audit, which keys answers by shape.
  int shapes = 12;
  /// Zipf exponent of the shape mix (0 = uniform).
  double zipf_s = 1.0;
  double vol_step = 0.25;
  int vol_mod = 6;
  int horizon_mod = 4;
  double target0 = 3.0;
  int target_mod = 3;
  /// Precision tightening: (factor on the shape's target, probability).
  std::vector<std::pair<double, double>> ladder = {{1.0, 1.0}};
  size_t cache_max_bytes = 1u << 20;
  uint64_t advance_every = 1000;
};

/// Read-mostly: the demo model, twelve shapes, mostly loose targets.
ServeConfig ServeHotConfig();
/// Writes beside reads: a 4096-row columnar chain table, wide shape set,
/// tight targets, a cache budget small enough to evict, frequent advances.
ServeConfig ServeChurnConfig(uint64_t seed);

/// What one measured phase saw, merged over its client threads and over
/// the slices it ran in.
struct ServePhase {
  double wall_s = 0.0;
  uint64_t requests = 0;
  uint64_t hits = 0;
  uint64_t topups = 0;
  uint64_t misses = 0;
  std::vector<double> all_ns, hit_ns, compute_ns, advance_ns;
  /// Cache counter deltas over the phase's slices.
  mde::serve::CacheStats cache;
  size_t bytes_peak = 0;
  size_t live_versions_peak = 0;
  uint64_t reclaimed = 0;
  // Traced phases only.
  std::vector<Span> spans;
  uint64_t window_ns = 0;
};

class ServeBench {
 public:
  using Phase = ServePhase;

  ServeBench(ServeConfig config, const RunOptions& opts, RunResult* result);
  ~ServeBench();

  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Builds the chain, starts the server and warms the cache (a fixed
  /// number of replications per shape). Replaces any earlier set-up.
  /// Returns its wall time in seconds.
  double Setup();
  /// Times one more set-up without replacing the live one.
  double ProbeSetup();

  /// Runs the closed loop for `seconds` (one slice of a phase) and adds
  /// what it saw to `acc`; records spans when `traced`.
  void RunPhase(double seconds, bool traced, ServePhase* acc);

  /// Cross-session consistency over every answer so far, then a
  /// bit-identity audit of a sample of them against a fresh
  /// single-threaded Server.
  void Audit();

  /// End-to-end metrics of an untraced phase.
  void ReportEndToEnd(ServePhase& phase);
  /// Per-layer metrics of a traced phase, given the untraced phase before
  /// it (for the tracing overhead).
  void ReportLayers(ServePhase& untraced, ServePhase& traced);

 private:
  struct System;
  struct Client;
  /// One distinct answer: (shape, version, reps) -> estimate, half-width.
  struct Record {
    uint32_t shape;
    uint64_t version;
    uint64_t reps;
    uint64_t estimate_bits;
    uint64_t half_width_bits;
  };

  mde::serve::Request MakeRequest(int shape, double factor) const;
  /// One set-up; sets `*secs` to its wall time. nullptr if it failed.
  std::unique_ptr<System> Build(double* secs);
  void RunClient(Client& c, unsigned index, uint64_t deadline_ns,
                 bool traced);

  const ServeConfig config_;
  const RunOptions opts_;
  RunResult* result_;
  uint64_t server_seed_;
  /// requests_[shape][ladder level].
  std::vector<std::vector<mde::serve::Request>> requests_;
  std::unique_ptr<System> sys_;
  std::vector<Record> records_;
  int phases_run_ = 0;
  uint64_t writer_requests_ = 0;  // client 0's requests, across slices
  std::atomic<bool> stop_{false};  // ends the running phase
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_WORKLOADS_H_
