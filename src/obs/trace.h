#ifndef MDE_OBS_TRACE_H_
#define MDE_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

/// Scoped tracing for the mde engine (EFECT's argument: a stochastic-
/// simulation run is only comparable to another run if it is instrumented
/// enough to see what it did). `MDE_TRACE_SPAN("vec.hash_join")` opens an
/// RAII span; completed spans land in a per-thread ring buffer and are
/// exported either as Chrome trace-event JSON (load chrome://tracing or
/// https://ui.perfetto.dev) or as a plain-text flame summary.
///
/// Cost model: tracing is globally OFF by default — a span on a disabled
/// tracer is one relaxed atomic load and a branch. When enabled, a span is
/// two steady_clock reads plus one short critical section on a mutex owned
/// by the recording thread's slot (spans wrap operator-granularity work,
/// micro- to milliseconds, so this never shows up in profiles). Ring
/// buffers keep the NEWEST events: a long benchmark run retains its final
/// iteration(s), which is exactly what --mde_trace_out wants. Span names
/// must be string literals (storage is never copied).
///
/// Determinism: spans observe the clock and write to side-band buffers
/// only; enabling tracing cannot change any engine output.
namespace mde::obs {

/// A completed span. `ts_ns`/`dur_ns` come from steady_clock; `tid` is the
/// recording thread's slot index (obs/thread_slot.h); `depth` is the
/// span-nesting depth on that thread at open time (0 = top level).
/// `trace_id` groups all spans of one query (0 = outside any query);
/// `span_id`/`parent_span_id` form the causal tree — the parent may live on
/// a DIFFERENT thread when the task was stolen or help-run, which is
/// exactly what the context-propagation layer (obs/context.h) preserves.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  uint32_t tid = 0;
  uint32_t depth = 0;
};

/// Monotonic nanoseconds (steady_clock).
uint64_t NowNanos();

class Tracer {
 public:
  static Tracer& Global();

  /// Ring capacity per recording thread, in events.
  static constexpr size_t kRingCapacity = 1 << 14;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends a completed span to the calling thread's ring.
  void Record(const char* name, uint64_t ts_ns, uint64_t dur_ns,
              uint32_t depth, uint64_t trace_id = 0, uint64_t span_id = 0,
              uint64_t parent_span_id = 0);

  /// Drains a copy of every thread's retained events, oldest-first within a
  /// thread, sorted globally by start time. Includes events recorded by
  /// threads that have since exited.
  std::vector<TraceEvent> Collect() const;

  /// Total events ever recorded / events evicted by ring wrap-around.
  uint64_t recorded() const { return recorded_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Discards all retained events (rings stay allocated).
  void Clear();

  /// Chrome trace-event JSON: {"traceEvents":[...]} with complete ("ph":
  /// "X") events, timestamps in microseconds relative to the earliest
  /// retained event. Leads with "ph":"M" metadata naming the process and
  /// one lane per thread slot (obs/thread_slot.h; unnamed slots render as
  /// "thread-<tid>"); spans carry trace/span ids in "args",
  /// and cross-thread parent->child edges emit flow events ("ph":"s"/"f")
  /// so Perfetto draws arrows across stolen tasks.
  std::string ChromeTraceJson() const;
  void WriteChromeTrace(std::ostream& os) const;

  /// Plain-text flame summary: per span name, call count, inclusive and
  /// self wall time (self = inclusive minus same-thread child spans),
  /// sorted by self time descending.
  std::string FlameSummary() const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
};

/// RAII span. Open/close cost when the tracer is disabled AND no query
/// context is active: one relaxed load plus one thread-local read. A span
/// under an active query context is additionally recorded in the crash
/// flight recorder (obs/flight.h) at open and threads its span id through
/// the context so children — on any thread — know their parent.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint32_t depth_ = 0;
  bool active_ = false;
  bool traced_ = false;
};

/// Names the calling thread everywhere it appears: Chrome trace lanes and
/// flight-recorder dumps. Interns `name`; call once per thread (workers call
/// it on start; the first QueryScope on an unnamed thread applies
/// "driver").
void SetCurrentThreadName(const std::string& name);
/// SetCurrentThreadName(fallback) if this thread was never named (cheap:
/// one read of the thread's slot).
void EnsureCurrentThreadNamed(const char* fallback);

}  // namespace mde::obs

#define MDE_OBS_CONCAT_INNER(a, b) a##b
#define MDE_OBS_CONCAT(a, b) MDE_OBS_CONCAT_INNER(a, b)
/// Opens a span covering the rest of the enclosing scope. `name` must be a
/// string literal (or otherwise outlive the tracer).
#define MDE_TRACE_SPAN(name) \
  ::mde::obs::SpanGuard MDE_OBS_CONCAT(_mde_trace_span_, __LINE__)(name)

#endif  // MDE_OBS_TRACE_H_
