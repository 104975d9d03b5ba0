#include "obs/flight.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/thread_slot.h"
#include "obs/trace.h"

namespace mde::obs {

namespace {

/// Dump destination resolved at handler-install time (getenv is not
/// async-signal-safe).
char g_signal_path[512] = "mde_flight.json";
std::atomic<bool> g_handlers_installed{false};

/// Dispositions that preceded ours, saved at install time so the fatal
/// handler can CHAIN instead of clobbering: a pre-existing handler (test
/// harness, sanitizer runtime) still runs after the dump.
constexpr int kMaxSavedSignal = 32;
struct sigaction g_prev_actions[kMaxSavedSignal];

const char* SignalName(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "signal:SIGSEGV";
    case SIGABRT:
      return "signal:SIGABRT";
    case SIGBUS:
      return "signal:SIGBUS";
    case SIGFPE:
      return "signal:SIGFPE";
    case SIGILL:
      return "signal:SIGILL";
  }
  return "signal:unknown";
}

void CrashSignalHandler(int sig) {
  FlightRecorder::DumpFromSignal(SignalName(sig));
  // Chain: restore whatever disposition preceded ours and re-raise. A saved
  // real handler gets the signal next (then presumably dies its own way);
  // SIG_IGN would swallow a fatal re-raise, so it degrades to SIG_DFL —
  // exit status and core dumps behave as without the recorder.
  if (sig >= 0 && sig < kMaxSavedSignal) {
    struct sigaction prev = g_prev_actions[sig];
    const bool prev_is_handler =
        (prev.sa_flags & SA_SIGINFO) != 0 ||
        (prev.sa_handler != SIG_DFL && prev.sa_handler != SIG_IGN);
    if (!prev_is_handler) prev.sa_handler = SIG_DFL;
    sigaction(sig, &prev, nullptr);
  } else {
    std::signal(sig, SIG_DFL);
  }
  std::raise(sig);
}

void InstallHandlersOnce() {
  bool expected = false;
  if (!g_handlers_installed.compare_exchange_strong(expected, true)) return;
  const char* env = std::getenv("MDE_FLIGHT_PATH");
  if (env != nullptr && *env != '\0') {
    std::strncpy(g_signal_path, env, sizeof(g_signal_path) - 1);
    g_signal_path[sizeof(g_signal_path) - 1] = '\0';
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashSignalHandler;
  sigemptyset(&sa.sa_mask);
  // Block the profiler's SIGPROF while dumping: a sampling tick landing
  // mid-dump would interleave with the crash artifact's write loop.
  sigaddset(&sa.sa_mask, SIGPROF);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    if (sig < kMaxSavedSignal) {
      sigaction(sig, &sa, &g_prev_actions[sig]);
    } else {
      sigaction(sig, &sa, nullptr);
    }
  }
}

/// Bounded writer for the dump: appends go to a fixed buffer that is
/// handed to `drain` whenever it fills, so no record, however long its
/// names, writes past it. Async-signal-safe when `drain` is, which lets the
/// normal and the signal dump paths format records with the same code.
class DumpWriter {
 public:
  using Drain = void (*)(void* sink, const char* data, size_t len);

  DumpWriter(Drain drain, void* sink) : drain_(drain), sink_(sink) {}
  ~DumpWriter() { Flush(); }

  DumpWriter(const DumpWriter&) = delete;
  DumpWriter& operator=(const DumpWriter&) = delete;

  void Put(char c) {
    if (len_ == sizeof(buf_)) Flush();
    buf_[len_++] = c;
  }
  void Raw(const char* s) {
    for (; *s != '\0'; ++s) Put(*s);
  }
  void Escaped(const char* s) {
    JsonEscape(s, [this](char c) { Put(c); });
  }
  void Num(uint64_t v, int base = 10) {
    char digits[20];
    const char* end =
        std::to_chars(digits, digits + sizeof(digits), v, base).ptr;
    for (const char* p = digits; p != end; ++p) Put(*p);
  }
  void Flush() {
    if (len_ > 0) drain_(sink_, buf_, len_);
    len_ = 0;
  }

 private:
  Drain drain_;
  void* sink_;
  char buf_[512];
  size_t len_ = 0;
};

void DrainToString(void* sink, const char* data, size_t len) {
  static_cast<std::string*>(sink)->append(data, len);
}

/// Loops ::write until `len` bytes land; false on an error.
/// Async-signal-safe.
bool WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t w = ::write(fd, data + off, len - off);
    if (w <= 0) return false;
    off += static_cast<size_t>(w);
  }
  return true;
}

void DrainToFd(void* sink, const char* data, size_t len) {
  WriteAll(*static_cast<const int*>(sink), data, len);
}

void WriteThread(DumpWriter& w, const internal::ThreadSlot& slot) {
  w.Raw("{\"thread\":\"");
  const char* name = slot.name.load(std::memory_order_acquire);
  if (name != nullptr) {
    w.Escaped(name);
  } else {
    w.Raw("thread-");
    w.Num(slot.index);
  }
  w.Put('"');
}

/// One span-open record, loaded field by field (see the tearing note in
/// flight.h).
struct SpanOpen {
  const internal::ThreadSlot* slot;
  const char* name;
  uint64_t ts_ns, trace_id, span_id, parent_span_id;
};

/// Calls `fn` on every retained span open of `slot`, oldest first.
template <typename Fn>
void ForEachSpanOpen(const internal::ThreadSlot& slot, Fn&& fn) {
  const uint64_t seq = slot.span_seq.load(std::memory_order_relaxed);
  const uint64_t count =
      std::min<uint64_t>(seq, FlightRecorder::kSpanRingSize);
  for (uint64_t k = seq - count; k < seq; ++k) {
    const internal::SpanOpenRecord& r =
        slot.span_ring[k % FlightRecorder::kSpanRingSize];
    const char* name = r.name.load(std::memory_order_relaxed);
    if (name == nullptr) continue;
    fn(SpanOpen{&slot, name, r.ts_ns.load(std::memory_order_relaxed),
                r.trace_id.load(std::memory_order_relaxed),
                r.span_id.load(std::memory_order_relaxed),
                r.parent_span_id.load(std::memory_order_relaxed)});
  }
}

void WriteSpanOpen(DumpWriter& w, const SpanOpen& r, bool first) {
  if (!first) w.Put(',');
  WriteThread(w, *r.slot);
  w.Raw(",\"name\":\"");
  w.Escaped(r.name);
  w.Raw("\",\"ts_ns\":");
  w.Num(r.ts_ns);
  w.Raw(",\"trace_id\":");
  w.Num(r.trace_id);
  w.Raw(",\"span_id\":");
  w.Num(r.span_id);
  w.Raw(",\"parent_span_id\":");
  w.Num(r.parent_span_id);
  w.Put('}');
}

/// The `"contexts":[...],"spans":[...]` sections. Spans are in timestamp
/// order when `sorted`, which allocates; the signal path writes them slot
/// by slot instead.
void WriteSlotSections(DumpWriter& w, bool sorted) {
  const size_t n = ThreadSlotCount();
  w.Raw("\"contexts\":[");
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    const internal::ThreadSlot& s = *internal::ThreadSlotAt(i);
    const uint64_t trace_id = s.ctx_trace_id.load(std::memory_order_relaxed);
    if (trace_id == 0) continue;
    if (!first) w.Put(',');
    first = false;
    WriteThread(w, s);
    w.Raw(",\"trace_id\":");
    w.Num(trace_id);
    w.Raw(",\"fingerprint\":\"0x");
    w.Num(s.ctx_fingerprint.load(std::memory_order_relaxed), 16);
    w.Raw("\",\"tag\":\"");
    const char* tag = s.ctx_tag.load(std::memory_order_relaxed);
    if (tag != nullptr) w.Escaped(tag);
    w.Raw("\"}");
  }
  w.Raw("],\"spans\":[");
  first = true;
  if (sorted) {
    std::vector<SpanOpen> recs;
    for (size_t i = 0; i < n; ++i) {
      ForEachSpanOpen(*internal::ThreadSlotAt(i),
                      [&recs](const SpanOpen& r) { recs.push_back(r); });
    }
    std::sort(recs.begin(), recs.end(),
              [](const SpanOpen& a, const SpanOpen& b) {
                return a.ts_ns < b.ts_ns;
              });
    for (const SpanOpen& r : recs) {
      WriteSpanOpen(w, r, first);
      first = false;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      ForEachSpanOpen(*internal::ThreadSlotAt(i),
                      [&w, &first](const SpanOpen& r) {
                        WriteSpanOpen(w, r, first);
                        first = false;
                      });
    }
  }
  w.Put(']');
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* r = [] {
    InstallHandlersOnce();
    return new FlightRecorder();  // leaked: outlives static destructors
  }();
  return *r;
}

void FlightRecorder::InstallCrashHandler() { Global(); }

std::string FlightRecorder::DefaultPath() {
  const char* env = std::getenv("MDE_FLIGHT_PATH");
  return (env != nullptr && *env != '\0') ? env : "mde_flight.json";
}

void FlightRecorder::RecordSpanOpen(const char* name, uint64_t ts_ns,
                                    uint64_t trace_id, uint64_t span_id,
                                    uint64_t parent_span_id) {
  internal::ThreadSlot* s = internal::CurrentThreadSlot();
  if (s == nullptr) return;
  const uint64_t i = s->span_seq.fetch_add(1, std::memory_order_relaxed);
  internal::SpanOpenRecord& r = s->span_ring[i % kSpanRingSize];
  r.name.store(name, std::memory_order_relaxed);
  r.ts_ns.store(ts_ns, std::memory_order_relaxed);
  r.trace_id.store(trace_id, std::memory_order_relaxed);
  r.span_id.store(span_id, std::memory_order_relaxed);
  r.parent_span_id.store(parent_span_id, std::memory_order_relaxed);
}

std::string FlightRecorder::RenderJson(const std::string& reason) const {
  std::string doc;
  doc.reserve(1 << 14);
  {
    DumpWriter w(DrainToString, &doc);
    w.Raw("{\"flight\":{\"version\":1,\"reason\":\"");
    w.Escaped(reason.c_str());
    w.Raw("\",\"ts_ns\":");
    w.Num(NowNanos());
    w.Put(',');
    WriteSlotSections(w, /*sorted=*/true);
    w.Raw(",\"counters\":{");
    const auto put = [&w](char c) { w.Put(c); };
    const std::vector<MetricSnapshot> snapshot = Registry::Global().Snapshot();
    bool first = true;
    for (const MetricSnapshot& m : snapshot) {
      if (m.kind != MetricSnapshot::Kind::kCounter) continue;
      JsonKey(m.name, &first, put);
      w.Num(static_cast<uint64_t>(m.value));
    }
    w.Raw("},\"gauges\":{");
    first = true;
    for (const MetricSnapshot& m : snapshot) {
      if (m.kind != MetricSnapshot::Kind::kGauge) continue;
      JsonKey(m.name, &first, put);
      JsonNumber(m.value, put);
    }
    w.Raw("}}}\n");
  }
  return doc;
}

bool FlightRecorder::DumpToFile(const std::string& path,
                                const std::string& reason) {
  const std::string doc = RenderJson(reason);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool written = WriteAll(fd, doc.data(), doc.size());
  ::close(fd);
  if (!written) {
    ::unlink(tmp.c_str());
    return false;
  }
  return ::rename(tmp.c_str(), path.c_str()) == 0;
}

void FlightRecorder::DumpFromSignal(const char* reason) {
  // Async-signal-safe: a stack buffer drained by write(2), no locks, no
  // allocation. The mutex-guarded metrics registry is skipped; the artifact
  // still carries every thread's recent spans and active context.
  int fd = ::open(g_signal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  {
    DumpWriter w(DrainToFd, &fd);
    w.Raw("{\"flight\":{\"version\":1,\"reason\":\"");
    w.Escaped(reason);
    w.Raw("\",");
    WriteSlotSections(w, /*sorted=*/false);
    w.Raw("}}\n");
  }
  ::close(fd);
}

void FlightRecorder::Reset() {
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    internal::ThreadSlot& s = *internal::ThreadSlotAt(i);
    s.span_seq.store(0, std::memory_order_relaxed);
    for (internal::SpanOpenRecord& r : s.span_ring) {
      r.name.store(nullptr, std::memory_order_relaxed);
    }
    s.ctx_trace_id.store(0, std::memory_order_relaxed);
    s.ctx_fingerprint.store(0, std::memory_order_relaxed);
    s.ctx_tag.store(nullptr, std::memory_order_relaxed);
  }
}

}  // namespace mde::obs
