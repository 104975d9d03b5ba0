#include "obs/context.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "obs/thread_slot.h"
#include "obs/trace.h"

namespace mde::obs {

namespace {

thread_local Context tls_context;
/// Wall nanoseconds of timed scopes (QueryScope / ContextGuard) that closed
/// on this thread inside the currently-open timed scope. Self time = own
/// wall minus this ledger, so a driver help-running its own query's tasks
/// never counts the same nanosecond twice.
thread_local uint64_t tls_child_ns = 0;

std::atomic<uint64_t> g_next_id{1};

bool AttrEnabledDefault() {
  const char* env = std::getenv("MDE_OBS_ATTR");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "OFF") == 0);
}

std::atomic<bool> g_attr_enabled{AttrEnabledDefault()};

void ZeroStats(QueryStats& q) {
  for (const QueryField& f : kQueryFields) {
    (q.*f.stat).store(0, std::memory_order_relaxed);
  }
}

}  // namespace

const Context& CurrentContext() { return tls_context; }

bool AttributionEnabled() {
  return g_attr_enabled.load(std::memory_order_relaxed);
}

void SetAttributionEnabled(bool on) {
  g_attr_enabled.store(on, std::memory_order_relaxed);
}

namespace internal {

Context& MutableCurrentContext() { return tls_context; }

uint64_t NextId() {
  // Ids are handed out in per-thread blocks: one shared fetch_add per
  // kIdBlock ids, so concurrent scopes do not bounce one counter's line.
  constexpr uint64_t kIdBlock = 1024;
  thread_local uint64_t next = 0;
  thread_local uint64_t end = 0;
  if (next == end) {
    next = g_next_id.fetch_add(kIdBlock, std::memory_order_relaxed);
    end = next + kIdBlock;
  }
  return next++;
}

uint64_t ExchangeChildNs(uint64_t v) {
  const uint64_t prev = tls_child_ns;
  tls_child_ns = v;
  return prev;
}

void AddChildNs(uint64_t ns) { tls_child_ns += ns; }

Context Install(const Context& ctx) {
  Context prev = tls_context;
  tls_context = ctx;
  // Mirror into the thread's obs slot: a crash dump says which query every
  // thread was serving, and the SIGPROF handler reads the slot's own
  // atomics, never this TLS.
  if (ThreadSlot* s = CurrentThreadSlot(); s != nullptr) {
    s->ctx_trace_id.store(ctx.trace_id, std::memory_order_relaxed);
    s->ctx_fingerprint.store(ctx.fingerprint, std::memory_order_relaxed);
    s->ctx_tag.store(ctx.tag, std::memory_order_relaxed);
  }
  return prev;
}

}  // namespace internal

uint64_t FingerprintString(const std::string& s) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h == 0 ? 1 : h;
}

uint64_t FingerprintMix(uint64_t fp, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    fp ^= (v >> shift) & 0xffu;
    fp *= 1099511628211ull;
  }
  return fp == 0 ? 1 : fp;
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

ContextGuard::ContextGuard(const Context& ctx) {
  prev_ = internal::Install(ctx);
  if (ctx.stats != nullptr) {
    timed_ = true;
    saved_child_ns_ = internal::ExchangeChildNs(0);
    start_ns_ = NowNanos();
  }
}

ContextGuard::~ContextGuard() {
  if (timed_) {
    const uint64_t wall = NowNanos() - start_ns_;
    const uint64_t child = internal::ExchangeChildNs(saved_child_ns_);
    const uint64_t self = wall > child ? wall - child : 0;
    QueryStats* stats = tls_context.stats;  // the context we installed
    if (stats != nullptr) {
      stats->cpu_ns.fetch_add(self, std::memory_order_relaxed);
      stats->tasks.fetch_add(1, std::memory_order_relaxed);
    }
    // Global twin of the per-query cpu-ns: the reconciliation contract is
    // sum(attribution cpu_ns) == attr.cpu_ns exactly (modulo evictions).
    MDE_OBS_COUNT("attr.cpu_ns", self);
    internal::AddChildNs(wall);  // outer ledger was just restored
  }
  internal::Install(prev_);
}

QueryScope::QueryScope(const char* tag, uint64_t fingerprint) {
  Context& cur = internal::MutableCurrentContext();
  if (cur.active() || !AttributionEnabled()) {
    // An outer query is already running (e.g. a chain step driving a table
    // query): everything attributes to it. Or attribution is switched off,
    // in which case no context is installed and the query runs untracked.
    adopted_ = true;
    return;
  }
  EnsureCurrentThreadNamed("driver");
  Context ctx;
  ctx.trace_id = internal::NextId();
  // Inherit the innermost open span so the query's spans parent correctly
  // under any enclosing (non-query) span on this thread.
  ctx.span_id = cur.span_id;
  ctx.fingerprint = fingerprint;
  ctx.tag = tag;
  ctx.stats = AttributionTable::Global().Acquire(fingerprint, tag);
  prev_ = internal::Install(ctx);
  saved_child_ns_ = internal::ExchangeChildNs(0);
  start_ns_ = NowNanos();
  MDE_OBS_COUNT("attr.queries", 1);
}

QueryScope::~QueryScope() {
  if (adopted_) return;
  const uint64_t wall = NowNanos() - start_ns_;
  const uint64_t child = internal::ExchangeChildNs(saved_child_ns_);
  const uint64_t self = wall > child ? wall - child : 0;
  QueryStats* stats = internal::MutableCurrentContext().stats;
  if (stats != nullptr) {
    stats->cpu_ns.fetch_add(self, std::memory_order_relaxed);
  }
  MDE_OBS_COUNT("attr.cpu_ns", self);
  internal::AddChildNs(wall);
  internal::Install(prev_);
}

AttributionTable& AttributionTable::Global() {
  static AttributionTable* t = new AttributionTable();  // leaked: outlives
  return *t;                                            // static dtors
}

QueryStats* AttributionTable::Acquire(uint64_t fingerprint, const char* tag) {
  // Per-thread memo, direct-mapped on the fingerprint; one filled at the
  // current generation still names the fingerprint's slot.
  struct Memo {
    uint64_t fingerprint = 0;
    uint64_t generation = 0;
    Entry* entry = nullptr;
  };
  constexpr size_t kMemoSlots = 8;
  thread_local Memo memo[kMemoSlots];
  Memo& m = memo[fingerprint % kMemoSlots];
  if (m.entry != nullptr && m.fingerprint == fingerprint &&
      m.generation == generation_.load(std::memory_order_acquire)) {
    // Recency ties with the latest locked acquire; stored only if stale.
    const uint64_t now = acquire_epoch_.load(std::memory_order_relaxed);
    if (m.entry->last_acquire.load(std::memory_order_relaxed) != now) {
      m.entry->last_acquire.store(now, std::memory_order_relaxed);
    }
    return &m.entry->stats;
  }

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now =
      acquire_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto it = by_fp_.find(fingerprint);
  if (it != by_fp_.end()) {
    it->second->last_acquire.store(now, std::memory_order_relaxed);
    m = {fingerprint, generation_.load(std::memory_order_relaxed),
         it->second};
    return &it->second->stats;
  }
  Entry* e = nullptr;
  if (!free_slots_.empty()) {
    // Unkeyed slot left by Reset: reuse before allocating or evicting.
    e = free_slots_.back();
    free_slots_.pop_back();
  } else if (slots_.size() < kMaxEntries) {
    slots_.push_back(std::make_unique<Entry>());
    e = slots_.back().get();
  } else {
    // Full: evict the least-recently-acquired fingerprint and RECYCLE its
    // slot. The QueryStats address stays valid forever, so a query still
    // holding the evicted slot keeps writing safely (its additions now land
    // on the new fingerprint — bounded misattribution, never unbounded
    // memory).
    auto victim = by_fp_.begin();
    for (auto cand = by_fp_.begin(); cand != by_fp_.end(); ++cand) {
      if (cand->second->last_acquire.load(std::memory_order_relaxed) <
          victim->second->last_acquire.load(std::memory_order_relaxed)) {
        victim = cand;
      }
    }
    e = victim->second;
    by_fp_.erase(victim);
    // Invalidates every thread's memo. A memo hit racing this eviction
    // returns the recycled slot: the bounded misattribution above.
    generation_.fetch_add(1, std::memory_order_release);
    ++evictions_;
    MDE_OBS_COUNT("attr.evictions", 1);
    ZeroStats(e->stats);
  }
  e->fingerprint = fingerprint;
  e->tag = tag != nullptr ? tag : "";
  e->last_acquire.store(now, std::memory_order_relaxed);
  by_fp_[fingerprint] = e;
  m = {fingerprint, generation_.load(std::memory_order_relaxed), e};
  return &e->stats;
}

std::vector<AttributionTable::Row> AttributionTable::Snapshot() const {
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(by_fp_.size());
    for (const auto& [fp, e] : by_fp_) {
      Row r;
      r.fingerprint = fp;
      r.tag = e->tag;
      for (const QueryField& f : kQueryFields) {
        r.*f.count = (e->stats.*f.stat).load(std::memory_order_relaxed);
      }
      rows.push_back(std::move(r));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.cpu_ns != b.cpu_ns) return a.cpu_ns > b.cpu_ns;
    return a.fingerprint < b.fingerprint;
  });
  return rows;
}

size_t AttributionTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_fp_.size();
}

uint64_t AttributionTable::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void AttributionTable::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  generation_.fetch_add(1, std::memory_order_release);
  by_fp_.clear();
  free_slots_.clear();
  for (auto& slot : slots_) {
    free_slots_.push_back(slot.get());
  }
  for (auto& slot : slots_) {
    slot->fingerprint = 0;
    slot->tag.clear();
    slot->last_acquire.store(0, std::memory_order_relaxed);
    ZeroStats(slot->stats);
  }
  acquire_epoch_.store(0, std::memory_order_relaxed);
  evictions_ = 0;
}

}  // namespace mde::obs
