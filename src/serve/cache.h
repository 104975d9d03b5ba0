#ifndef MDE_SERVE_CACHE_H_
#define MDE_SERVE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/stats.h"
#include "util/status.h"

/// CLT-bounded Monte Carlo result cache — the paper's result-caching idea
/// (MCDB Fig. 2) promoted to a shared, multi-session structure. A cached
/// answer is not a number but a SUFFICIENT STATISTIC: the RunningStat (n,
/// mean, m2) of the per-replication draws, from which mean and 95% CLT
/// half-width z*s/sqrt(n) are recovered at any time. That makes precision
/// negotiable after the fact:
///
///   - a request whose target half-width is LOOSER than the cached bound is
///     a pure hit — zero replications run;
///   - a TIGHTER request spends only the incremental replications, resuming
///     the substream at index n (the cache never re-runs reps it has).
///
/// Bit-identity contract: the value of replication i for a key must be a
/// pure function of (key, i) — the caller's rep_fn derives an Rng substream
/// from them. Top-ups Add draws sequentially in index order, so a
/// cache-assembled answer at n reps is bit-identical to a fresh session
/// running reps 0..n-1 itself. A per-entry mutex serializes top-ups: each
/// replication index is computed exactly once per key, process-wide.
///
/// Hit protocol: after every Add an entry PUBLISHES (n, mean, half-width)
/// through a seqlock written only by the holder of its mutex, so a hit
/// never takes the entry lock and never waits behind a top-up of its key.
///
///   - Memo. Each thread keeps a direct-mapped memo of 256 slots mapping
///     (cache id, key) to (raw Entry*, the entry's generation). It is
///     filled on a pure hit found in the index, and checked before the
///     index. The cache id is process-unique, so a slot a destroyed cache
///     filled never matches a later cache built at the same address.
///   - Generation check. Evicting an entry bumps its generation under the
///     index mutex. A memo hit counts only if the generation matches
///     before and after the seqlock read, the read is not torn, and the
///     answer is done; anything else falls through to the index.
///   - Type-stable entries. Entry memory lives as long as the cache: an
///     evicted entry goes to a free list once its last slow-path holder
///     lets go, and a reused one resets its RunningStat and republishes.
///     A stale memo pointer therefore always reads a live Entry, whose
///     generation says whether it still holds the memoized key.
///   - No refcount on a hit. The memo holds no reference, so a memo hit
///     takes no mutex, changes no shared count, allocates and frees
///     nothing; its only shared write is Touch's store-if-stale epoch.
///
/// The index mutex serves only memo misses, misses and top-ups. Those
/// re-find under it, take a slow-path reference, then take the entry
/// mutex (lock order index -> entry). Counters are thread-sharded.
///
/// Keys include the database version (serve/mvcc.h), so advancing the chain
/// naturally starts new entries; old-version entries age out via the
/// bytes x staleness eviction score.
namespace mde::serve {

/// Identity of one cacheable answer.
struct CacheKey {
  uint64_t query_fp = 0;    // query structure (plan/spec fingerprint)
  uint64_t param_hash = 0;  // bound parameter values
  uint64_t version = 0;     // database version the answer is about
  bool operator==(const CacheKey& o) const {
    return query_fp == o.query_fp && param_hash == o.param_hash &&
           version == o.version;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

/// Point-in-time counters (monotonic except bytes/entries).
struct CacheStats {
  uint64_t pure_hits = 0;   // answered without running any replication
  uint64_t topups = 0;      // hit the entry but ran incremental reps
  uint64_t misses = 0;      // entry did not exist
  uint64_t reps_run = 0;    // total replications executed through Fetch
  uint64_t reps_saved = 0;  // cached reps reused (sum of n at hit time)
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
  size_t slab_entries = 0;  // entry objects held, live or free; never shrinks
};

class ResultCache {
 public:
  struct Options {
    /// Resident budget; eviction runs when exceeded. Each entry costs a
    /// fixed ~kEntryBytes (the sufficient statistic is O(1)).
    size_t max_bytes = 1u << 20;
  };

  /// Estimated resident cost of one entry (key + RunningStat +
  /// bookkeeping + hash-table overhead). An estimate, not an accounting
  /// identity; it exists so max_bytes translates into an entry budget.
  static constexpr size_t kEntryBytes = 160;

  ResultCache();
  explicit ResultCache(Options opts);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Runs replication `rep_index` (a pure function of the key and index).
  using RepFn = std::function<Result<double>(uint64_t rep_index)>;

  struct FetchResult {
    double estimate = 0.0;
    double half_width = 0.0;  // RunningStat::half_width(): +inf when n < 2
    uint64_t reps = 0;        // total reps backing the answer
    uint64_t reps_added = 0;  // reps this call executed
    bool pure_hit = false;    // no replication ran
  };

  /// Returns an answer for `key` whose half-width is <= target_half_width
  /// if that is reachable within max_reps, running at most the missing
  /// replications via `rep_fn`. At least min_reps replications always back
  /// the answer (a CLT bound needs n >= 2; callers choose higher floors).
  /// On a rep_fn error the failed rep is not recorded and the error is
  /// returned; reps already recorded stay cached.
  Result<FetchResult> Fetch(const CacheKey& key, double target_half_width,
                            uint64_t min_reps, uint64_t max_reps,
                            const RepFn& rep_fn);

  /// Ages every entry one epoch — call when a new database version is
  /// installed. Staleness (epochs since last touch) scales the eviction
  /// score, so superseded-version entries go first.
  void AdvanceEpoch();

  CacheStats stats() const;

 private:
  struct Entry {
    std::mutex mu;       // serializes top-ups for this key
    RunningStat stat;    // guarded by mu
    std::atomic<uint64_t> last_touch_epoch{0};
    // Bumped under the index mutex when the entry leaves the index; a memo
    // slot is valid only while it matches.
    std::atomic<uint64_t> generation{0};
    // The index's reference plus one per slow-path holder; the entry joins
    // the free list when it reaches 0.
    std::atomic<uint32_t> refs{0};
    // Published answer of `stat`; `seq` is odd while it is rewritten.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> n{0};
    std::atomic<double> mean{0.0};
    std::atomic<double> half_width{0.0};
  };

  void Publish(Entry& e) const;  // requires e.mu
  /// Fills `out` from e's published answer without the entry lock;
  /// out->pure_hit says whether that answer satisfies the request.
  static void ReadHit(const Entry& e, double target_half_width,
                      uint64_t min_reps, uint64_t max_reps, FetchResult* out);
  void Touch(Entry& e) const;
  void Count(const FetchResult& out, uint64_t cached_reps);
  /// Takes a slow-path reference on `key`'s entry, inserting a recycled or
  /// new one on a miss; Release drops it.
  Entry* Acquire(const CacheKey& key);
  void Release(Entry* e);
  Entry* NewEntryLocked(uint64_t now);  // from free_ first, else slab_
  void EvictIfNeededLocked(uint64_t now);  // before an insert
  /// Refills victims_; false when every entry was touched this epoch.
  bool CollectVictimsLocked(uint64_t now);

  const Options opts_;
  mutable std::mutex mu_;  // guards every member up to id_
  uint64_t evictions_ = 0;
  std::unordered_map<CacheKey, Entry*, CacheKeyHash> map_;
  std::vector<std::unique_ptr<Entry>> slab_;  // every entry ever made
  std::vector<Entry*> free_;                  // refs == 0, not in map_
  // The stalest entries at the last scan, stalest last, each with the
  // last_touch_epoch it had then. A touch only makes an entry younger, so
  // a candidate whose epoch is unchanged is still the stalest left.
  std::vector<std::pair<CacheKey, uint64_t>> victims_;
  const uint64_t id_;  // process-unique; scopes memo slots
  std::atomic<uint64_t> epoch_{0};
  obs::Counter pure_hits_;
  obs::Counter topups_;
  obs::Counter misses_;
  obs::Counter reps_run_;
  obs::Counter reps_saved_;
};

}  // namespace mde::serve

#endif  // MDE_SERVE_CACHE_H_
