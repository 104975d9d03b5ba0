#ifndef MDE_OBS_METRICS_H_
#define MDE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Metrics registry for the mde engine. ProvSQL-style in-engine
/// bookkeeping: every subsystem (pool, vectorized kernels, MCDB bundle
/// generation, SimSQL chain steps, DSGD strata, SMC resampling) increments
/// named counters/gauges/histograms as a side-band record of what actually
/// executed. Design constraints, in order:
///
/// 1. *Near-zero hot-path cost.* Counter cells are thread-sharded: each
///    writer thread owns (by index hash) one cache-line-padded atomic cell
///    and increments it with a relaxed fetch_add; readers aggregate across
///    shards. No locks, no false sharing on the write path.
/// 2. *Determinism-neutral.* Metrics are write-only from the engine's point
///    of view: nothing in a kernel ever reads a metric, so collection cannot
///    perturb results or ordering.
///
/// Naming scheme: dot-separated "<subsystem>.<what>[.<detail>]", e.g.
/// "pool.steals", "vec.filter.rows_in", "mcdb.vg_samples". Counters count
/// monotonically; gauges hold the last written value; histograms use fixed
/// bucket upper bounds chosen at first registration.
namespace mde::obs {

/// Number of independent write cells per metric. Power of two; threads map
/// to cells by a monotone thread index, so up to kShards writers proceed
/// with no cache-line contention.
inline constexpr size_t kMetricShards = 16;

namespace internal {
/// Index of the calling thread's shard cell (stable per thread).
size_t ThisThreadShard();

struct alignas(64) ShardCell {
  std::atomic<uint64_t> v{0};
};
}  // namespace internal

/// Monotone counter. Writers call Add; Value() sums the shards (a snapshot,
/// not a linearization point — fine for observability).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[internal::ThisThreadShard()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  internal::ShardCell cells_[kMetricShards];
};

/// Last-write-wins scalar (queue depths, pool sizes, current α, ...).
class Gauge {
 public:
  void Set(double v) {
    bits_.store(ToBits(v), std::memory_order_relaxed);
  }
  double Value() const { return FromBits(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t ToBits(double v);
  static double FromBits(uint64_t b);
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; an implicit
/// +inf bucket catches the rest. Observation cost is one binary search plus
/// three relaxed adds on the caller's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Aggregated per-bucket counts (size bounds()+1; last bucket is +inf).
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  double Sum() const;

 private:
  struct Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum_bits{0};  // double accumulated via CAS
    char pad_[32];
  };
  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// Power-of-two bucket bounds 1, 2, 4, ... 2^(n-1) — the default for size-
/// and depth-like quantities (queue depth, rows per chunk, ...).
std::vector<double> ExponentialBounds(size_t n = 16);

/// One metric flattened for export.
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter total / gauge value / histogram sum
  uint64_t count = 0;  // histogram observation count
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
};

/// Process-wide metric registry. Lookup is mutex-guarded (cold: callers
/// cache the returned pointer in a function-local static); returned
/// pointers stay valid for the life of the process.
class Registry {
 public:
  static Registry& Global();

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// First registration fixes the bounds; later calls with the same name
  /// return the existing histogram regardless of `bounds` (first wins). A
  /// later call whose `bounds` differ from the registered ones increments
  /// the `obs.histogram.bounds_conflict` counter — observations from that
  /// call site land in buckets it did not ask for, which is worth seeing.
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  /// All metrics, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;
  /// Human-readable "name value" dump, one metric per line, sorted.
  std::string TextDump() const;

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace mde::obs

/// Hot-path instrumentation macros. The metric handle is resolved once per
/// call site (function-local static), so steady state is a relaxed
/// fetch_add on a thread-sharded cell.

#define MDE_OBS_COUNT(name, n)                                    \
  do {                                                            \
    static ::mde::obs::Counter* _mde_obs_c =                      \
        ::mde::obs::Registry::Global().counter(name);             \
    _mde_obs_c->Add(static_cast<uint64_t>(n));                    \
  } while (0)

#define MDE_OBS_GAUGE_SET(name, v)                                \
  do {                                                            \
    static ::mde::obs::Gauge* _mde_obs_g =                        \
        ::mde::obs::Registry::Global().gauge(name);               \
    _mde_obs_g->Set(static_cast<double>(v));                      \
  } while (0)

/// Observes into a histogram with power-of-two buckets.
#define MDE_OBS_OBSERVE(name, v)                                  \
  do {                                                            \
    static ::mde::obs::Histogram* _mde_obs_h =                    \
        ::mde::obs::Registry::Global().histogram(                 \
            name, ::mde::obs::ExponentialBounds());               \
    _mde_obs_h->Observe(static_cast<double>(v));                  \
  } while (0)

#endif  // MDE_OBS_METRICS_H_
