#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/context.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/thread_slot.h"

namespace mde::obs {

namespace {

thread_local uint32_t tls_span_depth = 0;

}  // namespace

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Global() {
  static Tracer* t = new Tracer();  // leaked: outlives static destructors
  return *t;
}

void Tracer::Record(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                    uint32_t depth, uint64_t trace_id, uint64_t span_id,
                    uint64_t parent_span_id) {
  internal::ThreadSlot* s = internal::CurrentThreadSlot();
  if (s == nullptr) return;
  recorded_.fetch_add(1, std::memory_order_relaxed);
  // The owner's appends and Collect/Clear meet on the slot's mutex:
  // uncontended in steady state, and spans are operator-granularity.
  std::lock_guard<std::mutex> lock(s->trace_mu);
  if (s->trace_ring.empty()) s->trace_ring.resize(kRingCapacity);
  TraceEvent& e =
      s->trace_ring[(s->trace_head + s->trace_count) % kRingCapacity];
  e.name = name;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span_id = parent_span_id;
  e.tid = s->index;
  e.depth = depth;
  if (s->trace_count < kRingCapacity) {
    ++s->trace_count;
  } else {
    s->trace_head = (s->trace_head + 1) % kRingCapacity;  // evict the oldest
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> out;
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    internal::ThreadSlot& s = *internal::ThreadSlotAt(i);
    std::lock_guard<std::mutex> lock(s.trace_mu);
    out.reserve(out.size() + s.trace_count);
    for (size_t k = 0; k < s.trace_count; ++k) {
      out.push_back(s.trace_ring[(s.trace_head + k) % kRingCapacity]);
    }
  }
  // Start-time order; ties broken shallow-first so a parent precedes a
  // child it opened on the same tick.
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.depth < b.depth;
            });
  return out;
}

void Tracer::Clear() {
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    internal::ThreadSlot& s = *internal::ThreadSlotAt(i);
    std::lock_guard<std::mutex> lock(s.trace_mu);
    s.trace_head = 0;
    s.trace_count = 0;
  }
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Collect();
  std::ostringstream os;
  const auto escaped = [&os](char c) { os.put(c); };
  uint64_t t0 = events.empty() ? 0 : events.front().ts_ns;
  os << "{\"traceEvents\":[";
  // Metadata first: process name, then one thread_name record per lane so
  // Perfetto labels rows "worker-3" instead of bare tids.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"mde\"}}";
  // Every slot gets a lane, even one with no retained events: a named idle
  // worker still shows up.
  for (size_t tid = 0, n = ThreadSlotCount(); tid < n; ++tid) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"";
    const char* name =
        internal::ThreadSlotAt(tid)->name.load(std::memory_order_acquire);
    if (name == nullptr) {
      os << "thread-" << tid;
    } else {
      JsonEscape(name, escaped);
    }
    os << "\"}}";
  }
  // Complete ("X") events, ids in args when the span belongs to a query or
  // causal chain.
  for (const TraceEvent& e : events) {
    os << ",{\"name\":\"";
    JsonEscape(e.name, escaped);
    os << "\",\"cat\":\"mde\",\"ph\":\"X\",\"pid\":0,\"tid\":" << e.tid
       << ",\"ts\":" << static_cast<double>(e.ts_ns - t0) / 1000.0
       << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    if (e.span_id != 0) {
      os << ",\"args\":{\"trace_id\":" << e.trace_id
         << ",\"span_id\":" << e.span_id
         << ",\"parent_span_id\":" << e.parent_span_id << "}";
    }
    os << "}";
  }
  // Flow events: for every parent->child edge that crosses threads (a
  // stolen or help-run task), emit a "s"/"f" pair keyed by the child's
  // span id so the viewer draws an arrow from the parent slice to the
  // child slice. The start point must land inside the parent slice, so
  // clamp the child's open time into the parent's interval.
  std::map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& e : events) {
    if (e.span_id != 0) by_span[e.span_id] = &e;
  }
  for (const TraceEvent& e : events) {
    if (e.parent_span_id == 0) continue;
    auto it = by_span.find(e.parent_span_id);
    if (it == by_span.end()) continue;
    const TraceEvent& p = *it->second;
    if (p.tid == e.tid) continue;  // same-thread nesting needs no arrow
    const uint64_t s_ts =
        std::min(std::max(e.ts_ns, p.ts_ns), p.ts_ns + p.dur_ns);
    os << ",{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"s\",\"id\":"
       << e.span_id << ",\"pid\":0,\"tid\":" << p.tid
       << ",\"ts\":" << static_cast<double>(s_ts - t0) / 1000.0 << "}";
    os << ",{\"name\":\"ctx\",\"cat\":\"mde\",\"ph\":\"f\",\"bp\":\"e\","
          "\"id\":"
       << e.span_id << ",\"pid\":0,\"tid\":" << e.tid
       << ",\"ts\":" << static_cast<double>(e.ts_ns - t0) / 1000.0 << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

std::vector<std::pair<std::string, SpanTotals>> ReduceSpanSelfTime(
    std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     return a.dur_ns > b.dur_ns;
                   });
  std::map<std::string, SpanTotals> totals;
  struct Open {
    uint64_t end_ns;
    SpanTotals* totals;
  };
  std::vector<Open> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0 && events[i - 1].tid != e.tid) stack.clear();
    SpanTotals& t = totals[e.name];
    ++t.calls;
    t.incl_ns += e.dur_ns;
    t.self_ns += static_cast<int64_t>(e.dur_ns);
    while (!stack.empty() && stack.back().end_ns <= e.ts_ns) stack.pop_back();
    if (!stack.empty()) {
      stack.back().totals->self_ns -= static_cast<int64_t>(e.dur_ns);
    }
    stack.push_back({e.ts_ns + e.dur_ns, &t});
  }
  std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                       totals.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  return rows;
}

std::string Tracer::FlameSummary() const {
  const std::vector<std::pair<std::string, SpanTotals>> rows =
      ReduceSpanSelfTime(Collect());
  std::ostringstream os;
  os << "span                              calls    incl_ms    self_ms\n";
  for (const auto& [name, a] : rows) {
    os << name;
    for (size_t p = name.size(); p < 32; ++p) os << ' ';
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %8llu %10.3f %10.3f\n",
                  static_cast<unsigned long long>(a.calls),
                  static_cast<double>(a.incl_ns) / 1e6,
                  static_cast<double>(a.self_ns) / 1e6);
    os << buf;
  }
  return os.str();
}

SpanGuard::SpanGuard(const char* name) : name_(name) {
  Tracer& t = Tracer::Global();
  Context& ctx = internal::MutableCurrentContext();
  traced_ = t.enabled();
  // Fast path (no tracer, no query): one relaxed load + one TLS read.
  if (!traced_ && !ctx.active()) return;
  active_ = true;
  depth_ = tls_span_depth++;
  span_id_ = internal::NextId();
  trace_id_ = ctx.trace_id;
  parent_span_id_ = ctx.span_id;
  ctx.span_id = span_id_;  // children opened under us parent to us
  if (ctx.stats != nullptr) {
    ctx.stats->spans.fetch_add(1, std::memory_order_relaxed);
  }
  start_ns_ = NowNanos();
  // Flight recorder sees every span OPEN (crash forensics wants the spans
  // that never closed), for traced and query-scoped work alike.
  FlightRecorder::Global().RecordSpanOpen(name, start_ns_, trace_id_,
                                          span_id_, parent_span_id_);
}

SpanGuard::~SpanGuard() {
  if (!active_) return;
  --tls_span_depth;
  internal::MutableCurrentContext().span_id = parent_span_id_;
  if (traced_) {
    Tracer::Global().Record(name_, start_ns_, NowNanos() - start_ns_, depth_,
                            trace_id_, span_id_, parent_span_id_);
  }
}

}  // namespace mde::obs
