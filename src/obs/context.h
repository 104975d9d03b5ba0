#ifndef MDE_OBS_CONTEXT_H_
#define MDE_OBS_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

/// Query-scoped observability: a causal context (trace id, span id, query
/// fingerprint) carried in a thread-local slot and propagated across
/// ThreadPool::Submit / ParallelFor task boundaries, so every span and every
/// attributed resource — no matter which worker stole the task — lands on
/// the query that caused it. EFECT's instrumentation argument (PAPERS.md)
/// applied to a SHARED engine: aggregate counters say what the process did;
/// the attribution table says which query burned the draws/bytes/cpu-ns.
///
/// Three pieces:
///
///  * `Context` + `QueryScope`: engine entry points (ExecutePlan,
///    GenerateBundles(Where), SimSQL chain steps, the SMC/DSGD drivers) open
///    a QueryScope tagged with a stable fingerprint. If a context is already
///    active the scope ADOPTS it (a chain step's inner table query
///    attributes to the chain, not to itself); otherwise it installs a fresh
///    trace id and acquires a QueryStats slot.
///  * `ContextGuard`: restores a captured context inside a pool task. The
///    pool captures `CurrentContext()` at Submit time and the executing
///    worker — including thieves and help-runners — installs it for the
///    task's duration, so causality survives work stealing.
///  * `QueryStats` / `AttributionTable`: bounded per-fingerprint accumulator
///    (rows in/out, VG draws, bundle bytes, cpu-ns self time, cache hits)
///    exported via Prometheus labels and the JSONL sampler.
///
/// cpu-ns accounting: each timed scope (QueryScope root or pool-task
/// ContextGuard) records wall time MINUS the wall time of timed scopes
/// nested on the SAME thread (a thread-local child ledger), so a driver that
/// help-runs its own query's tasks never double-counts. The per-query total
/// is therefore the sum of disjoint per-thread segments. The identical
/// value is added to the global `attr.cpu_ns` counter, which is what the
/// reconciliation test compares against.
///
/// Determinism: contexts ride alongside tasks and are write-only side-band
/// state — nothing in a kernel reads them — so enabling attribution cannot
/// change any engine output.
namespace mde::obs {

/// The per-query attribution fields, in declaration and export order. The
/// accumulator, its snapshot row and every writer and reader of a row (the
/// Prometheus families, the JSONL sampler, /queryz, mde_report) are
/// generated from or iterate this one list.
#define MDE_OBS_QUERY_FIELDS(X)                                      \
  X(cpu_ns) X(tasks) X(spans) X(rows_in) X(rows_out) X(vg_draws)     \
  X(bundle_bytes) X(cache_hits)

/// Per-query resource accumulator. Stable address for the process lifetime
/// (slots are recycled on eviction, never freed); fields are relaxed
/// atomics so any worker can add without coordination.
struct QueryStats {
#define MDE_OBS_QUERY_STAT(f) std::atomic<uint64_t> f{0};
  MDE_OBS_QUERY_FIELDS(MDE_OBS_QUERY_STAT)
#undef MDE_OBS_QUERY_STAT
};

/// A QueryStats read out as plain values.
struct QueryCounts {
#define MDE_OBS_QUERY_COUNT(f) uint64_t f = 0;
  MDE_OBS_QUERY_FIELDS(MDE_OBS_QUERY_COUNT)
#undef MDE_OBS_QUERY_COUNT
};

/// One attribution field: its export name and its member in both forms.
struct QueryField {
  const char* name;
  std::atomic<uint64_t> QueryStats::*stat;
  uint64_t QueryCounts::*count;
};
#define MDE_OBS_QUERY_FIELD(f) QueryField{#f, &QueryStats::f, &QueryCounts::f},
inline constexpr QueryField kQueryFields[] = {
    MDE_OBS_QUERY_FIELDS(MDE_OBS_QUERY_FIELD)};
#undef MDE_OBS_QUERY_FIELD

/// The causal context: who is asking. `trace_id` groups every span of one
/// query across all workers; `span_id` is the innermost open span on the
/// current path (the parent for spans opened next); `fingerprint`/`tag`
/// identify the query shape for attribution. Plain value type — capturing
/// it into a task copies five words.
struct Context {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t fingerprint = 0;
  const char* tag = nullptr;  // string literal, e.g. "table.query"
  QueryStats* stats = nullptr;

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current context (inactive default outside any
/// QueryScope / ContextGuard).
const Context& CurrentContext();

/// Runtime kill switch for query attribution. When off, QueryScope installs
/// nothing (no trace id, no stats slot), so every downstream MDE_OBS_ATTR_ADD
/// and context-gated span sees an inactive context and takes its cheap path.
/// Defaults to on; `MDE_OBS_ATTR=0|off` in the environment flips the startup
/// default. Because the switch is consulted only at scope-open time, toggling
/// it mid-query affects the NEXT query, never a running one. With
/// MDE_PROF_HZ and Tracer::Enable it is how observability is turned down
/// (perfbench/README.md's ledger map covers the retired overhead guard).
bool AttributionEnabled();
void SetAttributionEnabled(bool on);

namespace internal {
/// Mutable access for SpanGuard's parent-span bookkeeping.
Context& MutableCurrentContext();
/// Process-unique nonzero id (trace and span ids share the sequence).
/// Handed out from per-thread blocks, so ids are unique but not ordered
/// across threads.
uint64_t NextId();
/// Same-thread child-wall-time ledger used by the timed scopes.
uint64_t ExchangeChildNs(uint64_t v);
void AddChildNs(uint64_t ns);
/// Installs `ctx` as the thread's current context (and mirrors it into the
/// thread's obs slot, obs/thread_slot.h); returns the previous context.
Context Install(const Context& ctx);
}  // namespace internal

/// FNV-1a 64-bit over a byte string — the fingerprint helper for engines
/// whose identity is a name (chain spec names, bundle table + VG shape).
uint64_t FingerprintString(const std::string& s);
/// Mixes an integer into a fingerprint (seed, rep count, ...).
uint64_t FingerprintMix(uint64_t fp, uint64_t v);

/// Restores a captured context for the duration of a pool task, timing the
/// task's self wall time into the context's QueryStats when attribution is
/// active. Used by ThreadPool; also usable by any hand-rolled worker.
class ContextGuard {
 public:
  explicit ContextGuard(const Context& ctx);
  ~ContextGuard();

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  Context prev_;
  uint64_t start_ns_ = 0;
  uint64_t saved_child_ns_ = 0;
  bool timed_ = false;
};

/// Root scope opened by an engine entry point. Creates a fresh context
/// (new trace id, QueryStats slot for `fingerprint`) unless one is already
/// active, in which case it adopts the outer query and does nothing else.
class QueryScope {
 public:
  QueryScope(const char* tag, uint64_t fingerprint);
  ~QueryScope();

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// True when an outer context was already active (nothing was installed).
  bool adopted() const { return adopted_; }

 private:
  bool adopted_ = false;
  Context prev_;
  uint64_t start_ns_ = 0;
  uint64_t saved_child_ns_ = 0;
};

/// Bounded per-fingerprint attribution table. At most kMaxEntries distinct
/// fingerprints are tracked; acquiring a new fingerprint on a full table
/// evicts the least-recently-acquired entry and RECYCLES its slot (counters
/// zeroed). A query still running when its slot is recycled keeps writing
/// into the recycled slot — bounded misattribution under fingerprint-
/// cardinality pressure, by design: the table can never grow without bound
/// no matter how many distinct queries a serving process sees. Evictions
/// are counted on `attr.evictions`.
/// Repeat acquires skip the mutex through a per-thread fingerprint -> slot
/// memo, valid while the table generation (bumped by eviction and Reset)
/// is unchanged.
class AttributionTable {
 public:
  static AttributionTable& Global();

  static constexpr size_t kMaxEntries = 256;

  /// Returns the stats slot for `fingerprint`, creating (or evicting +
  /// recycling) as needed. `tag` is recorded on first acquire.
  QueryStats* Acquire(uint64_t fingerprint, const char* tag);

  /// One exported row (counters read relaxed at snapshot time).
  struct Row : QueryCounts {
    uint64_t fingerprint = 0;
    std::string tag;
  };
  /// All live entries, highest cpu-ns first.
  std::vector<Row> Snapshot() const;

  size_t size() const;
  uint64_t evictions() const;

  /// Drops all keyed entries and zeroes recycled slots (tests only; slots
  /// handed out earlier remain valid writable memory).
  void Reset();

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    std::string tag;
    std::atomic<uint64_t> last_acquire{0};  // acquire_epoch_ at last use
    QueryStats stats;
  };

  AttributionTable() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> slots_;
  /// Slots owned by slots_ but not currently keyed in by_fp_ (only ever
  /// populated by Reset); reused before allocating or evicting.
  std::vector<Entry*> free_slots_;
  std::map<uint64_t, Entry*> by_fp_;
  std::atomic<uint64_t> acquire_epoch_{0};  // written under mu_
  std::atomic<uint64_t> generation_{0};     // written under mu_
  uint64_t evictions_ = 0;
};

/// Hex "0x..." rendering of a fingerprint, the label value used by the
/// Prometheus exporter, the JSONL sampler, and mde_report.
std::string FingerprintHex(uint64_t fingerprint);

}  // namespace mde::obs

#ifndef MDE_OBS_CONCAT
#define MDE_OBS_CONCAT_INNER(a, b) a##b
#define MDE_OBS_CONCAT(a, b) MDE_OBS_CONCAT_INNER(a, b)
#endif

/// Opens a query scope covering the rest of the enclosing block. `tag` must
/// be a string literal; `fp` is any uint64 fingerprint expression.
#define MDE_OBS_QUERY_SCOPE(tag, fp) \
  ::mde::obs::QueryScope MDE_OBS_CONCAT(_mde_obs_qscope_, __LINE__)((tag), (fp))

/// Adds `n` to the active query's `field` accumulator (no-op when no query
/// context is active). `field` is a QueryStats member name.
#define MDE_OBS_ATTR_ADD(field, n)                                     \
  do {                                                                 \
    ::mde::obs::QueryStats* _mde_obs_qs =                              \
        ::mde::obs::CurrentContext().stats;                            \
    if (_mde_obs_qs != nullptr) {                                      \
      _mde_obs_qs->field.fetch_add(static_cast<uint64_t>(n),           \
                                   std::memory_order_relaxed);         \
    }                                                                  \
  } while (0)

#endif  // MDE_OBS_CONTEXT_H_
