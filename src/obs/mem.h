#ifndef MDE_OBS_MEM_H_
#define MDE_OBS_MEM_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Memory accounting for the mde engine, built on the metrics registry.
/// Storage-owning subsystems (columnar blocks in mde::table, BundleTable
/// storage in mde::mcdb) report allocations and frees into a named pool;
/// each pool is a pair of monotone thread-sharded counters
///
///   obs.mem.<pool>.alloc_bytes   total bytes ever allocated
///   obs.mem.<pool>.freed_bytes   total bytes ever freed
///
/// so live bytes = alloc - freed can be derived at read time (the exporters
/// in obs/export.h synthesize an `obs.mem.<pool>.live_bytes` gauge from the
/// pair). Counters-not-gauges keeps the write path a relaxed fetch_add and
/// makes per-interval allocation rates recoverable from sampled deltas.
///
/// Everything here is write-only side-band state.
namespace mde::obs {

class Counter;

/// Reports `bytes` allocated into / freed from pool `pool` (a short literal
/// like "table.columnar" or "mcdb.bundle"). The metric handles are resolved
/// through the registry on every call — fine for occasional events; hot
/// call sites should hold a MemPool instead.
void RecordAlloc(const char* pool, uint64_t bytes);
void RecordFree(const char* pool, uint64_t bytes);

/// Pre-resolved handle to one pool's counter pair: the registry lookup
/// (mutex + map + string building) happens once at construction, so each
/// report is just a relaxed fetch_add on a sharded cell. Construct it as a
/// function-local static (pool names are literals at the call sites).
/// Trivially destructible, so statics of this type are safe at shutdown.
class MemPool {
 public:
  explicit MemPool(const char* pool);

  void RecordAlloc(uint64_t bytes);
  void RecordFree(uint64_t bytes);

 private:
  Counter* alloc_ = nullptr;
  Counter* freed_ = nullptr;
};

/// alloc - freed for the pool, clamped at 0 (a snapshot across sharded
/// counters, so momentarily-interleaved readings may be off by in-flight
/// deltas). Returns 0 for unknown pools.
uint64_t LiveBytes(const std::string& pool);

/// RAII byte account for one storage object: Set(bytes) reports the delta
/// against the previously reported size, the destructor frees the
/// remainder. Copies re-report their bytes as a fresh allocation; moves
/// transfer the account. Safe to embed in freely copied/moved value types.
class MemAccount {
 public:
  explicit MemAccount(const char* pool) : pool_(pool) {}
  explicit MemAccount(MemPool pool) : pool_(pool) {}
  MemAccount(const MemAccount& o) : pool_(o.pool_), bytes_(o.bytes_) {
    pool_.RecordAlloc(bytes_);
  }
  MemAccount(MemAccount&& o) noexcept : pool_(o.pool_), bytes_(o.bytes_) {
    o.bytes_ = 0;
  }
  MemAccount& operator=(const MemAccount& o) {
    if (this != &o) {
      Set(0);
      pool_ = o.pool_;
      bytes_ = o.bytes_;
      pool_.RecordAlloc(bytes_);
    }
    return *this;
  }
  MemAccount& operator=(MemAccount&& o) noexcept {
    if (this != &o) {
      Set(0);
      pool_ = o.pool_;
      bytes_ = o.bytes_;
      o.bytes_ = 0;
    }
    return *this;
  }
  ~MemAccount() { Set(0); }

  /// Reports the object's current footprint; only the delta hits the
  /// counters.
  void Set(uint64_t bytes) {
    if (bytes > bytes_) {
      pool_.RecordAlloc(bytes - bytes_);
    } else if (bytes < bytes_) {
      pool_.RecordFree(bytes_ - bytes);
    }
    bytes_ = bytes;
  }
  uint64_t bytes() const { return bytes_; }

 private:
  MemPool pool_;
  uint64_t bytes_ = 0;
};

/// Process-level memory read from /proc/self/status (Linux). `ok` is false
/// when the file is unavailable (non-procfs platforms); readers must treat
/// the numbers as absent, not zero.
struct ProcessMemory {
  int64_t rss_kb = 0;       // VmRSS
  int64_t peak_rss_kb = 0;  // VmHWM
  bool ok = false;
};
ProcessMemory SampleProcessMemory();

/// Samples process memory and publishes `obs.mem.rss_kb` /
/// `obs.mem.peak_rss_kb` gauges (no-op when /proc is unavailable). The
/// Sampler in obs/export.h calls this once per tick.
void PublishProcessMemoryGauges();

}  // namespace mde::obs

#endif  // MDE_OBS_MEM_H_
