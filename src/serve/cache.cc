#include "serve/cache.h"

#include <algorithm>
#include <atomic>

#include "obs/context.h"
#include "obs/metrics.h"

namespace mde::serve {

namespace {

/// The precision rule, shared by Fetch's top-up loop and ReadHit: an answer
/// of n reps is done once it has min_reps and either meets the target or
/// has reached max_reps. A NaN half-width compares false and counts as done,
/// so a NaN draw stops a top-up instead of running it to max_reps.
bool Done(uint64_t n, double half_width, double target_half_width,
          uint64_t min_reps, uint64_t max_reps) {
  return n >= min_reps &&
         (n >= max_reps || !(half_width > target_half_width));
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& k) const {
  uint64_t h = obs::FingerprintMix(k.query_fp, k.param_hash);
  h = obs::FingerprintMix(h, k.version);
  return static_cast<size_t>(h);
}

namespace {

uint64_t NextCacheId() {
  static std::atomic<uint64_t> next{1};  // 0 marks an empty memo slot
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

ResultCache::ResultCache() : ResultCache(Options()) {}

ResultCache::ResultCache(Options opts) : opts_(opts), id_(NextCacheId()) {}

Result<ResultCache::FetchResult> ResultCache::Fetch(
    const CacheKey& key, double target_half_width, uint64_t min_reps,
    uint64_t max_reps, const RepFn& rep_fn) {
  if (min_reps < 2) min_reps = 2;  // a CLT bound needs n >= 2
  if (max_reps < min_reps) max_reps = min_reps;

  // Per-thread memo, direct-mapped on (cache id, key). It holds no
  // reference: the entry's memory outlives every slot that can match it,
  // and its generation says whether it still holds `key`.
  struct MemoSlot {
    uint64_t cache_id = 0;  // 0 is never a cache id: an empty slot
    CacheKey key;
    Entry* entry = nullptr;
    uint64_t generation = 0;
  };
  constexpr int kMemoBits = 8;  // 256 slots
  thread_local MemoSlot memo[1 << kMemoBits];
  // The fingerprints are hashes already; one multiply-shift folds them
  // with the small version and cache id into a slot.
  constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ull;
  const uint64_t mix =
      (key.query_fp ^ key.param_hash ^ key.version * kGolden ^ id_) * kGolden;
  MemoSlot& m = memo[mix >> (64 - kMemoBits)];
  if (m.cache_id == id_ && m.key == key) {
    Entry& e = *m.entry;
    if (e.generation.load(std::memory_order_acquire) == m.generation) {
      FetchResult hit;
      ReadHit(e, target_half_width, min_reps, max_reps, &hit);
      // Re-checked after the read: an entry recycled for another key
      // republishes only after its generation moved on.
      if (hit.pure_hit &&
          e.generation.load(std::memory_order_relaxed) == m.generation) {
        Touch(e);
        Count(hit, hit.reps);
        return hit;
      }
    }
  }

  FetchResult out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      Entry& e = *it->second;
      ReadHit(e, target_half_width, min_reps, max_reps, &out);
      if (out.pure_hit) {
        Touch(e);
        m = {id_, key, &e, e.generation.load(std::memory_order_relaxed)};
      }
    }
  }
  if (out.pure_hit) {
    Count(out, out.reps);
    return out;
  }

  // Slow path (miss, top-up, or a torn read), decided under the entry mutex.
  // Per-entry critical section: every concurrent session topping up this
  // key queues here, so each replication index is computed exactly once.
  Entry* entry = Acquire(key);
  Status status;
  uint64_t cached_reps = 0;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    cached_reps = entry->stat.count();
    while (!Done(entry->stat.count(), entry->stat.half_width(),
                 target_half_width, min_reps, max_reps)) {
      // Sequential Add at index n keeps the accumulator bit-identical to a
      // single session running reps 0..n-1 itself (no parallel Merge — the
      // merge order would differ from the sequential order).
      Result<double> draw = rep_fn(entry->stat.count());
      if (!draw.ok()) {
        status = draw.status();  // reps so far are published
        break;
      }
      entry->stat.Add(draw.value());
      Publish(*entry);  // a looser request can hit on the partial top-up
      ++out.reps_added;
    }
    out.estimate = entry->stat.mean();
    out.half_width = entry->stat.half_width();
    out.reps = entry->stat.count();
  }
  Release(entry);  // after the entry mutex: a free entry is never locked
  if (!status.ok()) return status;
  out.pure_hit = out.reps_added == 0;
  Count(out, cached_reps);
  return out;
}

ResultCache::Entry* ResultCache::Acquire(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = nullptr;
  auto it = map_.find(key);
  if (it != map_.end()) {
    e = it->second;
    Touch(*e);
  } else {
    // One epoch reading for the eviction scan and the insert, so an
    // AdvanceEpoch in between cannot make the new entry look stale.
    const uint64_t now = epoch_.load(std::memory_order_relaxed);
    EvictIfNeededLocked(now);  // first, so the insert can reuse a victim
    e = NewEntryLocked(now);
    e->refs.store(1, std::memory_order_relaxed);  // the index's reference
    map_.emplace(key, e);
    // Entries and bytes change only here, after an insert.
    MDE_OBS_GAUGE_SET("serve.cache.entries", static_cast<double>(map_.size()));
    MDE_OBS_GAUGE_SET("serve.cache.bytes",
                      static_cast<double>(map_.size() * kEntryBytes));
  }
  e->refs.fetch_add(1, std::memory_order_relaxed);
  return e;
}

void ResultCache::Release(Entry* e) {
  if (e->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(e);  // evicted while held: the last holder recycles it
  }
}

ResultCache::Entry* ResultCache::NewEntryLocked(uint64_t now) {
  Entry* e = nullptr;
  if (!free_.empty()) {
    e = free_.back();
    free_.pop_back();
    // Nobody holds a free entry, so its mutex is uncontended. Reset and
    // republish before the entry is findable again: no reader may see the
    // old key's answer under the new key.
    std::lock_guard<std::mutex> entry_lock(e->mu);
    e->stat = RunningStat();
    Publish(*e);
  } else {
    slab_.push_back(std::make_unique<Entry>());
    e = slab_.back().get();
  }
  e->last_touch_epoch.store(now, std::memory_order_relaxed);
  return e;
}

void ResultCache::Publish(Entry& e) const {
  // Writers are serialized by e.mu. The release stores of the data pair
  // with ReadHit's acquire loads, so a reader that sees any new word also
  // sees the odd `seq` written before it, and rejects the read.
  const uint64_t seq = e.seq.load(std::memory_order_relaxed);
  e.seq.store(seq + 1, std::memory_order_relaxed);
  e.n.store(e.stat.count(), std::memory_order_release);
  e.mean.store(e.stat.mean(), std::memory_order_release);
  e.half_width.store(e.stat.half_width(), std::memory_order_release);
  e.seq.store(seq + 2, std::memory_order_release);
}

void ResultCache::ReadHit(const Entry& e, double target_half_width,
                          uint64_t min_reps, uint64_t max_reps,
                          FetchResult* out) {
  const uint64_t seq = e.seq.load(std::memory_order_acquire);
  out->reps = e.n.load(std::memory_order_acquire);
  out->estimate = e.mean.load(std::memory_order_acquire);
  out->half_width = e.half_width.load(std::memory_order_acquire);
  // Not torn (no top-up publishing meanwhile), and already done.
  out->pure_hit =
      (seq & 1) == 0 && e.seq.load(std::memory_order_relaxed) == seq &&
      Done(out->reps, out->half_width, target_half_width, min_reps, max_reps);
}

void ResultCache::Touch(Entry& e) const {
  // Stored only when stale: a hot key's line stays shared between readers.
  const uint64_t now = epoch_.load(std::memory_order_relaxed);
  if (e.last_touch_epoch.load(std::memory_order_relaxed) != now) {
    e.last_touch_epoch.store(now, std::memory_order_relaxed);
  }
}

void ResultCache::Count(const FetchResult& out, uint64_t cached_reps) {
  if (out.pure_hit) {
    pure_hits_.Add();
    MDE_OBS_COUNT("serve.cache.pure_hits", 1);
    MDE_OBS_ATTR_ADD(cache_hits, 1);
  } else if (cached_reps > 0) {
    topups_.Add();
  } else {
    misses_.Add();
  }
  if (out.reps_added > 0) reps_run_.Add(out.reps_added);
  reps_saved_.Add(cached_reps);
  MDE_OBS_COUNT("serve.cache.reps_saved", cached_reps);
}

void ResultCache::AdvanceEpoch() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.pure_hits = pure_hits_.Value();
  s.topups = topups_.Value();
  s.misses = misses_.Value();
  s.reps_run = reps_run_.Value();
  s.reps_saved = reps_saved_.Value();
  std::lock_guard<std::mutex> lock(mu_);
  s.evictions = evictions_;
  s.entries = map_.size();
  s.bytes = map_.size() * kEntryBytes;
  s.slab_entries = slab_.size();
  return s;
}

void ResultCache::EvictIfNeededLocked(uint64_t now) {
  const size_t budget_entries =
      opts_.max_bytes < kEntryBytes ? 1 : opts_.max_bytes / kEntryBytes;
  // Runs before an insert, so it makes room for one more entry. Highest
  // bytes x staleness score goes first; with O(1) entries the bytes factor
  // is constant, leaving staleness (epochs since last touch) as the score.
  // Never evict an entry touched this epoch.
  while (map_.size() >= budget_entries) {
    if (victims_.empty() && !CollectVictimsLocked(now)) break;
    const auto [key, touched] = victims_.back();
    victims_.pop_back();
    auto it = map_.find(key);
    if (it == map_.end() ||
        it->second->last_touch_epoch.load(std::memory_order_relaxed) !=
            touched) {
      continue;  // touched since the scan: no longer among the stalest
    }
    Entry* e = it->second;
    map_.erase(it);
    // Invalidates every memo slot naming e. Only mu_ holders write it.
    e->generation.store(e->generation.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
    if (e->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      free_.push_back(e);
    }
    ++evictions_;
    MDE_OBS_COUNT("serve.cache.evictions", 1);
  }
}

bool ResultCache::CollectVictimsLocked(uint64_t now) {
  // A full cache evicts on every insert. One scan serves up to
  // size / 64 evictions, so an insert pays for about 64 entries of scan,
  // not all of them. A small cache still scans per eviction: batching
  // 48 entries measured slower serve_churn hits.
  const size_t batch = std::max<size_t>(1, map_.size() / 64);
  for (const auto& [key, e] : map_) {
    // A memo hit touches without mu_, so `touched` may be newer than now.
    const uint64_t touched =
        e->last_touch_epoch.load(std::memory_order_relaxed);
    if (touched < now) victims_.emplace_back(key, touched);
  }
  const auto fresher = [](const auto& a, const auto& b) {
    return a.second > b.second;
  };
  if (victims_.size() > batch) {
    const auto keep = victims_.end() - static_cast<ptrdiff_t>(batch);
    std::nth_element(victims_.begin(), keep, victims_.end(), fresher);
    victims_.erase(victims_.begin(), keep);
  }
  std::sort(victims_.begin(), victims_.end(), fresher);  // stalest last
  return !victims_.empty();
}

}  // namespace mde::serve
