#include "serve/cache.h"

#include <vector>

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

ResultCache::ResultCache() : ResultCache(Options()) {}

ResultCache::ResultCache(Options opts) : opts_(opts) {}

Result<ResultCache::FetchResult> ResultCache::Fetch(
    const CacheKey& key, double target_half_width, uint64_t min_reps,
    uint64_t max_reps, const RepFn& rep_fn) {
  if (min_reps < 2) min_reps = 2;  // a CLT bound needs n >= 2
  if (max_reps < min_reps) max_reps = min_reps;

  FetchResult out;
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ReadHit(*it->second, target_half_width, min_reps, max_reps, &out);
      if (out.pure_hit) Touch(*it->second);
    }
  }
  if (out.pure_hit) {
    Count(out, out.reps);
    return out;
  }

  // Slow path (miss, top-up, or a torn read), decided under the entry mutex.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      // One epoch reading for the insert and the eviction scan, so an
      // AdvanceEpoch in between cannot make the new entry look stale.
      const uint64_t now = epoch_.load(std::memory_order_relaxed);
      entry = std::make_shared<Entry>();
      entry->last_touch_epoch.store(now, std::memory_order_relaxed);
      map_.emplace(key, entry);
      EvictIfNeededLocked(now);
    } else {
      entry = it->second;
      Touch(*entry);
    }
  }

  // Per-entry critical section: every concurrent session topping up this
  // key queues here, so each replication index is computed exactly once.
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  const uint64_t cached_reps = entry->stat.count();
  while (!Done(entry->stat.count(), entry->stat.half_width(),
               target_half_width, min_reps, max_reps)) {
    // Sequential Add at index n keeps the accumulator bit-identical to a
    // single session running reps 0..n-1 itself (no parallel Merge — the
    // merge order would differ from the sequential order).
    Result<double> draw = rep_fn(entry->stat.count());
    if (!draw.ok()) return draw.status();  // reps so far are published
    entry->stat.Add(draw.value());
    Publish(*entry);  // a looser request can hit on the partial top-up
    ++out.reps_added;
  }
  out.estimate = entry->stat.mean();
  out.half_width = entry->stat.half_width();
  out.reps = entry->stat.count();
  out.pure_hit = out.reps_added == 0;
  Count(out, cached_reps);
  return out;
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
  return s;
}

void ResultCache::EvictIfNeededLocked(uint64_t now) {
  const size_t budget_entries =
      opts_.max_bytes < kEntryBytes ? 1 : opts_.max_bytes / kEntryBytes;
  while (map_.size() > budget_entries) {
    // Highest bytes x staleness score goes first; with O(1) entries the
    // bytes factor is constant, leaving staleness (epochs since last
    // touch) as the score. Never evict an entry touched this epoch — that
    // set includes the entry the current Fetch just created.
    auto victim = map_.end();
    uint64_t victim_age = 0;
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      const uint64_t age =
          now - it->second->last_touch_epoch.load(std::memory_order_relaxed);
      if (age > 0 && (victim == map_.end() || age > victim_age)) {
        victim = it;
        victim_age = age;
      }
    }
    if (victim == map_.end()) break;  // everything is current-epoch
    map_.erase(victim);
    ++evictions_;
    MDE_OBS_COUNT("serve.cache.evictions", 1);
  }
  // Entries and bytes change only here, after an insert.
  MDE_OBS_GAUGE_SET("serve.cache.entries", static_cast<double>(map_.size()));
  MDE_OBS_GAUGE_SET("serve.cache.bytes",
                    static_cast<double>(map_.size() * kEntryBytes));
}

}  // namespace mde::serve
