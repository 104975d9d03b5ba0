#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// The benchmark's own tracer. A span is recorded around each call the
/// benchmark makes into an engine layer, and around each callback it hands
/// the engine (query replications, chain transitions). Spans are kept in
/// per-thread memory during the traced phase and reduced at the end: a
/// span's self time is its duration minus the part of its interval that
/// its children cover, wherever those children ran.
namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Engine modules that time is attributed to, plus the benchmark's own
/// bookkeeping between engine calls. `serve/cache`, `simd` and
/// `util/thread_pool` run only inside engine calls, so from outside they
/// are visible as counters and run context, not as span time.
enum class Layer : uint8_t {
  kServe,      // serve/server, serve/session (and serve/cache inside them)
  kServeMvcc,  // serve/mvcc (plus the runner step behind AdvanceVersion)
  kSimsql,     // simsql chains and the transitions they call
  kMcdb,       // mcdb bundles and Monte Carlo replications
  kTable,      // table: plan, optimizer, catalog, vec_ops
  kBench,      // the benchmark itself: input picks, checks, checksums
  kCount
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

/// Metric-safe layer name ("serve_mvcc", not "serve/mvcc").
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  // static string
  Layer layer = Layer::kServe;
  uint8_t flags = 0;      // caller-defined tag (e.g. request outcome)
  uint32_t thread = 0;
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t request = 0;   // shared by every span of one operation
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  uint64_t duration() const { return end_ns - start_ns; }
};

/// One thread's span buffer. Only its owning thread records into it; a
/// child span recorded on another thread names its parent by id, and ids
/// are unique across logs.
class SpanLog {
 public:
  /// `capacity` must stay below 2^32 (ids keep 32 bits per log).
  SpanLog(uint32_t thread, size_t capacity);

  uint32_t thread() const { return thread_; }
  /// A fresh span id, unique across every log of the process: the log's
  /// own serial number in the high bits.
  uint64_t NextId() { return serial_ << 32 | ++seq_; }
  bool full() const { return spans_.size() >= capacity_; }
  /// Records a finished span (children may be recorded before parents).
  void Record(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const { return spans_; }

  /// The thread's traced wall time, measured apart from its spans: the
  /// whole that the layer self times must add up to.
  /// Returns the window's start.
  uint64_t OpenWindow() { return window_start_ = NowNs(); }
  void CloseWindow() { window_ns_ += NowNs() - window_start_; }
  uint64_t window_ns() const { return window_ns_; }

 private:
  uint32_t thread_;
  size_t capacity_;
  uint64_t serial_;
  uint64_t seq_ = 0;
  uint64_t window_start_ = 0;
  uint64_t window_ns_ = 0;
  std::vector<Span> spans_;
};

/// The calling thread's tracing state: the log it records into (nullptr
/// while untraced) and the open span that new spans nest under.
struct ThreadTrace {
  SpanLog* log = nullptr;
  uint64_t parent = 0;
  uint64_t request = 0;
};
ThreadTrace& CurrentTrace();

/// Records one span around its scope when the thread is traced; otherwise
/// costs one thread-local read. Spans opened inside it nest under it.
class ScopedSpan {
 public:
  /// `start_ns` lets a caller that reads the clock anyway share the read.
  ScopedSpan(const char* name, Layer layer, uint64_t start_ns = 0) {
    ThreadTrace& t = CurrentTrace();
    if (t.log == nullptr) return;
    trace_ = &t;
    span_.name = name;
    span_.layer = layer;
    span_.thread = t.log->thread();
    span_.id = t.log->NextId();
    span_.parent = t.parent;
    span_.request = t.parent == 0 ? span_.id : t.request;
    saved_parent_ = t.parent;
    saved_request_ = t.request;
    t.parent = span_.id;
    t.request = span_.request;
    span_.start_ns = start_ns != 0 ? start_ns : NowNs();
  }
  ~ScopedSpan() { End(0); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span now, or at `end_ns` when non-zero. Idempotent.
  void End(uint64_t end_ns) {
    if (trace_ == nullptr) return;
    span_.end_ns = end_ns != 0 ? end_ns : NowNs();
    trace_->log->Record(span_);
    trace_->parent = saved_parent_;
    trace_->request = saved_request_;
    trace_ = nullptr;
  }
  void set_flags(uint8_t flags) { span_.flags = flags; }

 private:
  ThreadTrace* trace_ = nullptr;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// Self time of every span (index-aligned with `spans`): duration minus the
/// measure of the union of its children's intervals clipped to its own.
/// Children that overlap each other (siblings running on different
/// threads) are counted once. A span whose parent is absent is a root.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per layer.
std::array<uint64_t, kNumLayers> LayerSelfTotals(
    const std::vector<Span>& spans, const std::vector<uint64_t>& self);

/// Median duration, or self time when `self` is given, of the spans named
/// `name` whose flags pass `keep` (all when null), in ns; 0 when none.
double SpanMedianNs(const std::vector<Span>& spans,
                    const std::vector<uint64_t>* self, const char* name,
                    bool (*keep)(uint8_t flags) = nullptr);

/// Layers add up to the whole when the per-layer self times sum to within
/// `tolerance` (a share) of `wall_ns`, the traced threads' windows. Time
/// the spans miss falls short of it; a child counted twice overshoots.
bool LayersAddUp(const std::array<uint64_t, kNumLayers>& totals,
                 uint64_t wall_ns, double tolerance);

/// Writes up to `max_spans` spans as Chrome trace-event JSON (viewable in
/// Perfetto). Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
