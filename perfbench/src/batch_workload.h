#ifndef PERFBENCH_BATCH_WORKLOAD_H_
#define PERFBENCH_BATCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "result.h"
#include "spans.h"

/// The batch_analytics workload: one offline analyst (the main thread)
/// with a ThreadPool of `threads - 1` workers, installed with SetVecPool
/// and passed to GenerateBundles*, repeating one round of four operations:
///
///   mc_pushdown  GenerateBundlesWhere(GENDER = 'F') + AggregateAvg
///   mc_full      GenerateBundles + FilterStoch(SBP > 120) + AggregateAvg
///   plan         OptimizePlan + ExecutePlan of a 200k x 5k join/filter
///   chain_run    MarkovChainDb::Run, 10 steps over 10k walkers
namespace perfbench {

/// What one measured phase saw, over all the slices it ran in.
struct BatchPhase {
  double wall_s = 0.0;
  uint64_t rounds = 0;
  std::vector<double> pushdown_ns, full_ns, plan_ns, chain_ns;
  // Engine counters over the phase.
  uint64_t vg_samples = 0;
  uint64_t draws_saved = 0;
  uint64_t draws_kept = 0;
  uint64_t vec_chunks = 0;
  uint64_t row_fallbacks = 0;
  uint64_t columnar_cache_hits = 0;
  uint64_t intermediate_rows = 0;
  uint64_t pool_tasks = 0;
  uint64_t pool_steals = 0;
  uint64_t pool_help_runs = 0;
  // Traced phases only.
  std::vector<Span> spans;
  uint64_t window_ns = 0;
};

class BatchBench {
 public:
  using Phase = BatchPhase;

  BatchBench(const RunOptions& opts, RunResult* result);
  ~BatchBench();

  BatchBench(const BatchBench&) = delete;
  BatchBench& operator=(const BatchBench&) = delete;

  /// Builds every input from the seed, computes the serial references,
  /// and warms catalog feedback, columnar caches and the pool with one
  /// round. Replaces any earlier set-up. Returns its wall time in seconds.
  double Setup();
  /// Times one more set-up without replacing the live one.
  double ProbeSetup();

  /// Repeats rounds until `seconds` have passed (one slice of a phase) and
  /// adds what it saw to `acc`; records spans if `traced`. The pool runs
  /// only inside the slice.
  void RunPhase(double seconds, bool traced, BatchPhase* acc);

  /// Once per run: GenerateBundlesWhere is bit-identical to
  /// GenerateBundles + FilterDet for the run's seed.
  void Audit();

  void ReportEndToEnd(BatchPhase& phase);
  void ReportLayers(BatchPhase& untraced, BatchPhase& traced);

 private:
  struct System;
  /// One set-up; sets `*secs` to its wall time. nullptr if it failed.
  std::unique_ptr<System> Build(double* secs);
  /// One round of the four operations on `s`.
  void RunRound(System& s, BatchPhase* phase);
  /// Pool workers: the main thread plus these stay within `threads`.
  unsigned Workers() const;

  const RunOptions opts_;
  RunResult* result_;
  std::unique_ptr<System> sys_;
  uint64_t round_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_WORKLOAD_H_
