#ifndef MDE_OBS_EXPORT_H_
#define MDE_OBS_EXPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

/// Export surface of the metrics registry: standard-format rendering for
/// scrapers, plus a background Sampler that turns the instant-valued
/// registry into an on-disk time series. Both are strictly READ-ONLY with
/// respect to the engine — they call Registry::Snapshot() (and /proc), so
/// running them concurrently with any workload cannot change a result bit
/// (same side-band discipline as the rest of mde::obs; the determinism
/// test in obs_export_test runs engines under a 10ms sampler across thread
/// counts).
namespace mde::obs {

/// Prometheus metric-name sanitization: every character outside
/// [a-zA-Z0-9_:] becomes '_' (the registry's dot-separated names map
/// "pool.steals" -> "pool_steals"); a leading digit gains a '_' prefix.
std::string SanitizeMetricName(const std::string& name);

/// Renders a snapshot in the Prometheus text exposition format (version
/// 0.0.4): one `# TYPE` comment per family, counters/gauges as single
/// samples, histograms as CUMULATIVE `_bucket{le="..."}` samples (the
/// registry stores per-bucket counts; the exposition requires running
/// totals ending in `le="+Inf"`) plus `_sum` and `_count`. Gauge and sum
/// values use round-trip (max_digits10) formatting.
std::string PrometheusText(const std::vector<MetricSnapshot>& snapshot);

/// Convenience: PrometheusText(Registry::Global().Snapshot()) with derived
/// memory gauges appended (see AppendDerivedGauges), sample hooks run
/// first, and the per-query attribution table appended as LABELED counter
/// families (see AppendAttributionText).
std::string PrometheusText();

/// Process-identity string labels, set once at startup by subsystems that
/// live ABOVE obs in the layering (obs cannot call into them): e.g. the
/// SIMD dispatcher writes SetRuntimeLabel("simd_tier", "avx2") when it
/// picks a tier. Unset keys read as "unknown". Thread-safe.
void SetRuntimeLabel(const std::string& key, const std::string& value);
std::string GetRuntimeLabel(const std::string& key);

/// Compile-time git hash (MDE_GIT_HASH from the build; "unknown" without
/// git) and seconds since this process initialized the obs library.
const char* BuildGitHash();
double ProcessUptimeSeconds();

/// Identity-and-liveness families appended to every /metrics exposition so
/// it agrees with /statusz:
///
///   mde_build_info{git_hash="...",simd_tier="..."} 1
///   mde_process_uptime_seconds <s>
///   mde_process_rss_bytes / mde_process_peak_rss_bytes   (procfs only)
std::string BuildInfoText();

/// Renders the per-query attribution table (obs/context.h) as Prometheus
/// counter families labeled by query fingerprint and tag:
///
///   mde_query_cpu_ns{query="0x9a...",tag="table.query"} 1234567
///
/// One family per QueryStats field (cpu_ns, tasks, spans, rows_in,
/// rows_out, vg_draws, bundle_bytes, cache_hits); empty table renders
/// nothing.
std::string AttributionText();

/// Sample hooks run immediately before each export surface snapshots the
/// registry (every Sampler tick and every no-arg PrometheusText call), so
/// subsystems can publish instant-valued gauges — e.g. the ThreadPool's
/// per-worker queue_depth. Hooks run WITH the hook registry lock held:
/// UnregisterSampleHook therefore blocks until any in-flight run finishes,
/// which is what makes "unregister, then destruct" safe for a hook that
/// captures its owner. A hook must not call Register/Unregister itself.
using SampleHook = std::function<void()>;
uint64_t RegisterSampleHook(SampleHook hook);
void UnregisterSampleHook(uint64_t id);
void RunSampleHooks();

/// Appends synthesized gauges to a snapshot: for every memory pool with
/// `obs.mem.<pool>.alloc_bytes` / `.freed_bytes` counter pairs (obs/mem.h),
/// an `obs.mem.<pool>.live_bytes` gauge = alloc - freed. Keeps the write
/// path counter-only while exporting the quantity dashboards actually
/// plot.
void AppendDerivedGauges(std::vector<MetricSnapshot>* snapshot);

/// One JSONL time-series record, written per Sampler tick:
///
///   {"t_ms":<since sampler start>,
///    "counters":{"name":{"v":<total>,"d":<delta since previous line>}},
///    "gauges":{"name":<value>},
///    "hist":{"name":{"count":N,"sum":S,"bounds":[...],"buckets":[...]}},
///    "mem":{"rss_kb":N,"peak_rss_kb":N}}          (omitted without procfs)
///
/// Buckets are per-bucket (not cumulative) counts, `bounds`-aligned with
/// one trailing +inf bucket — enough for the run-report tool to
/// interpolate p50/p90/p99 from any single line.
struct SamplerOptions {
  std::string path;
  std::chrono::milliseconds period{100};
  /// Sample /proc/self/status and publish obs.mem.rss_kb/peak_rss_kb
  /// gauges each tick.
  bool include_process_memory = true;
};

/// Background registry sampler: a thread that appends one JSONL record per
/// period, RAII start/stop (the destructor stops the thread and writes one
/// final record so short runs always produce at least one complete
/// sample). Counter deltas are computed against the previously written
/// record, so per-interval rates come straight out of the file.
class Sampler {
 public:
  explicit Sampler(SamplerOptions options);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Stops the thread, writes the final record, flushes and closes the
  /// file. Idempotent; called by the destructor.
  void Stop();

  /// Records written so far (>= 1 after Stop on a writable path).
  uint64_t samples_written() const {
    return samples_.load(std::memory_order_relaxed);
  }
  bool ok() const { return out_.is_open(); }

 private:
  void Loop();
  /// Appends one record; `t_ms` is milliseconds since sampler start.
  void WriteSample(double t_ms);

  SamplerOptions options_;
  std::ofstream out_;
  std::chrono::steady_clock::time_point start_;
  /// Previous counter totals, for per-interval deltas (sampler thread
  /// only; final write happens after the thread joined).
  std::map<std::string, double> last_counters_;
  std::atomic<uint64_t> samples_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

}  // namespace mde::obs

#endif  // MDE_OBS_EXPORT_H_
