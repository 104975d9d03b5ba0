#include "obs/profiler.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/thread_slot.h"
#include "obs/trace.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace mde::obs {

namespace {

using internal::SampleRecord;
using internal::ThreadSlot;

std::atomic<uint64_t> g_samples_recorded{0};
/// Samples whose stack was deeper than kMaxFrames. A plain atomic: the
/// handler must not reach Counter::Add, which goes through the thread's
/// metric shard. A sample hook publishes it as `prof.truncated`.
std::atomic<uint64_t> g_samples_truncated{0};
/// The session: running flag and rate, both written under the slot
/// registry mutex. The flag doubles as the handler gate: timers are deleted
/// under that mutex, but a signal already in flight can land after Stop —
/// it checks this and drops out.
std::atomic<bool> g_session_active{false};
int g_hz = Profiler::kDefaultHz;

/// Frames `backtrace` reports above the interrupted PC from inside a signal
/// handler: the handler itself and the kernel signal trampoline.
constexpr int kSkipFrames = 2;

void ProfSignalHandler(int /*sig*/, siginfo_t* si, void* /*uctx*/) {
  // Only our timers; a stray kill(SIGPROF) must not write garbage frames.
  if (si != nullptr && si->si_code != SI_TIMER) return;
  ThreadSlot* s = internal::HeldThreadSlot();
  if (s == nullptr || !g_session_active.load(std::memory_order_relaxed)) {
    return;
  }
  SampleRecord* ring = s->samples.load(std::memory_order_acquire);
  if (ring == nullptr) return;
  const int saved_errno = errno;
  // One frame more than is kept: a full buffer means the stack went deeper.
  constexpr int kCapacity =
      static_cast<int>(Profiler::kMaxFrames) + kSkipFrames + 1;
  void* frames[kCapacity];
  const int n = ::backtrace(frames, kCapacity);
  const int skip = kSkipFrames < n ? kSkipFrames : n;
  uint32_t depth = static_cast<uint32_t>(n - skip);
  if (depth > Profiler::kMaxFrames) {
    g_samples_truncated.fetch_add(1, std::memory_order_relaxed);
    depth = Profiler::kMaxFrames;
  }
  const uint64_t i = s->sample_seq.load(std::memory_order_relaxed);
  SampleRecord& r = ring[i % Profiler::kRingSize];
  r.ts_ns.store(0, std::memory_order_relaxed);  // invalidate while writing
  r.fingerprint.store(s->ctx_fingerprint.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  r.tag.store(s->ctx_tag.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  for (uint32_t d = 0; d < depth; ++d) {
    r.pcs[d].store(reinterpret_cast<uintptr_t>(frames[skip + d]),
                   std::memory_order_relaxed);
  }
  r.depth.store(depth, std::memory_order_relaxed);
  r.ts_ns.store(NowNanos(), std::memory_order_release);
  s->sample_seq.store(i + 1, std::memory_order_release);
  g_samples_recorded.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void InstallProfHandlerOnce() {
  static const bool installed = [] {
    // Prime backtrace outside the signal path: the first call may dlopen
    // libgcc_s, which is not async-signal-safe.
    void* prime[4];
    ::backtrace(prime, 4);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = ProfSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    // Hooks run one at a time, so `published` needs no lock of its own.
    RegisterSampleHook([published = uint64_t{0}]() mutable {
      const uint64_t total =
          g_samples_truncated.load(std::memory_order_relaxed);
      MDE_OBS_COUNT("prof.truncated", total - published);
      published = total;
    });
    return sigaction(SIGPROF, &sa, nullptr) == 0;
  }();
  (void)installed;
}

}  // namespace

namespace internal {

bool ArmProfilerTimerLocked(ThreadSlot* slot) {
  if (slot->timer_armed || !g_session_active.load(std::memory_order_relaxed)) {
    return slot->timer_armed;
  }
  // The ring exists before the timer does, so the handler never sees a
  // timer without one.
  if (slot->samples.load(std::memory_order_relaxed) == nullptr) {
    slot->samples.store(new SampleRecord[Profiler::kRingSize](),
                        std::memory_order_release);  // kept with the slot
  }
  clockid_t clk;
  if (pthread_getcpuclockid(slot->pthread, &clk) != 0) return false;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = slot->tid;
  if (timer_create(clk, &sev, &slot->timer) != 0) return false;
  const long period_ns = 1000000000L / g_hz;
  struct itimerspec its;
  its.it_interval.tv_sec = period_ns / 1000000000L;
  its.it_interval.tv_nsec = period_ns % 1000000000L;
  its.it_value = its.it_interval;
  if (timer_settime(slot->timer, 0, &its, nullptr) != 0) {
    timer_delete(slot->timer);
    return false;
  }
  slot->timer_armed = true;
  return true;
}

void DisarmProfilerTimerLocked(ThreadSlot* slot) {
  if (!slot->timer_armed) return;
  timer_delete(slot->timer);
  slot->timer_armed = false;
}

}  // namespace internal

Profiler& Profiler::Global() {
  static Profiler* p = new Profiler();  // leaked: outlives static dtors
  return *p;
}

bool Profiler::Start(int hz) {
  InstallProfHandlerOnce();
  internal::CurrentThreadSlot();  // the caller is sampled too
  hz = std::clamp(hz, 1, 1000);
  std::lock_guard<std::mutex> lock(internal::SlotRegistryMutex());
  if (g_session_active.load(std::memory_order_relaxed)) return false;
  g_hz = hz;
  g_session_active.store(true, std::memory_order_relaxed);
  size_t armed = 0;
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    ThreadSlot* s = internal::ThreadSlotAt(i);
    if (s->live && internal::ArmProfilerTimerLocked(s)) ++armed;
  }
  if (armed == 0) {  // e.g. sandbox without timer_create
    g_session_active.store(false, std::memory_order_relaxed);
    return false;
  }
  MDE_OBS_COUNT("prof.sessions", 1);
  MDE_OBS_GAUGE_SET("prof.hz", g_hz);
  return true;
}

void Profiler::Stop() {
  std::lock_guard<std::mutex> lock(internal::SlotRegistryMutex());
  if (!g_session_active.load(std::memory_order_relaxed)) return;
  g_session_active.store(false, std::memory_order_relaxed);
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    internal::DisarmProfilerTimerLocked(internal::ThreadSlotAt(i));
  }
  MDE_OBS_GAUGE_SET("prof.hz", 0);
}

bool Profiler::running() const {
  return g_session_active.load(std::memory_order_relaxed);
}

int Profiler::hz() const {
  std::lock_guard<std::mutex> lock(internal::SlotRegistryMutex());
  return g_hz;
}

uint64_t Profiler::samples_recorded() const {
  return g_samples_recorded.load(std::memory_order_relaxed);
}

uint64_t Profiler::samples_truncated() const {
  return g_samples_truncated.load(std::memory_order_relaxed);
}

std::vector<Profiler::Sample> Profiler::Collect(uint64_t since_ns,
                                                uint64_t until_ns,
                                                uint64_t query_fp) const {
  if (until_ns == 0) until_ns = NowNanos();
  std::vector<Sample> out;
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    const ThreadSlot* s = internal::ThreadSlotAt(i);
    const SampleRecord* ring = s->samples.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t seq = s->sample_seq.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(seq, kRingSize);
    for (uint64_t k = seq - count; k < seq; ++k) {
      const SampleRecord& r = ring[k % kRingSize];
      const uint64_t ts = r.ts_ns.load(std::memory_order_acquire);
      if (ts < since_ns || ts >= until_ns) continue;
      const uint64_t fp = r.fingerprint.load(std::memory_order_relaxed);
      if (query_fp != 0 && fp != query_fp) continue;
      const uint32_t depth =
          std::min<uint32_t>(r.depth.load(std::memory_order_relaxed),
                             static_cast<uint32_t>(kMaxFrames));
      if (depth == 0) continue;
      Sample sample;
      sample.ts_ns = ts;
      sample.fingerprint = fp;
      sample.tag = r.tag.load(std::memory_order_relaxed);
      sample.pcs.reserve(depth);
      for (uint32_t d = 0; d < depth; ++d) {
        sample.pcs.push_back(r.pcs[d].load(std::memory_order_relaxed));
      }
      out.push_back(std::move(sample));
    }
  }
  return out;
}

std::string SymbolizePc(uintptr_t pc) {
  // Memoized dladdr + demangle; one mutex-guarded map for the process.
  static std::mutex* mu = new std::mutex();
  static std::map<uintptr_t, std::string>* cache =
      new std::map<uintptr_t, std::string>();
  {
    std::lock_guard<std::mutex> lock(*mu);
    auto it = cache->find(pc);
    if (it != cache->end()) return it->second;
  }
  std::string name;
  Dl_info info;
  // The sampled PC is a return address (one past the call); resolve pc-1 so
  // a call as a function's last instruction maps to the right symbol.
  if (::dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = demangled;
    } else {
      name = info.dli_sname;
    }
    std::free(demangled);
  } else if (::dladdr(reinterpret_cast<void*>(pc - 1), &info) != 0 &&
             info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s+0x%llx",
                  base != nullptr ? base + 1 : info.dli_fname,
                  static_cast<unsigned long long>(
                      pc - reinterpret_cast<uintptr_t>(info.dli_fbase)));
    name = buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    name = buf;
  }
  // The folded grammar reserves ';' (frame separator); symbols keep their
  // spaces — consumers split the count off the LAST space.
  for (char& c : name) {
    if (c == ';' || c == '\n' || c == '\r') c = ':';
  }
  std::lock_guard<std::mutex> lock(*mu);
  return cache->emplace(pc, std::move(name)).first->second;
}

std::string Profiler::Folded(const std::vector<Sample>& samples, int hz,
                             double window_s, bool query_roots) {
  // Collapse identical (query, stack) pairs; render root-first.
  std::map<std::string, uint64_t> folded;
  for (const Sample& s : samples) {
    std::string line;
    if (query_roots) {
      if (s.fingerprint != 0) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "query:0x%llx",
                      static_cast<unsigned long long>(s.fingerprint));
        line = buf;
      } else {
        line = "query:-";
      }
    }
    for (auto it = s.pcs.rbegin(); it != s.pcs.rend(); ++it) {
      if (!line.empty()) line.push_back(';');
      line += SymbolizePc(*it);
    }
    if (!line.empty()) ++folded[line];
  }
  std::string out;
  char header[128];
  std::snprintf(header, sizeof(header),
                "# mde_profile hz=%d samples=%llu window_s=%.3f\n", hz,
                static_cast<unsigned long long>(samples.size()), window_s);
  out += header;
  // Count-descending, name as tiebreak, for stable golden checks.
  std::vector<std::pair<const std::string*, uint64_t>> rows;
  rows.reserve(folded.size());
  for (const auto& [stack, n] : folded) rows.push_back({&stack, n});
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return *a.first < *b.first;
  });
  for (const auto& [stack, n] : rows) {
    out += *stack;
    out.push_back(' ');
    out += std::to_string(n);
    out.push_back('\n');
  }
  return out;
}

std::string Profiler::CaptureFolded(double seconds, uint64_t query_fp,
                                    bool query_roots, int hz) {
  seconds = std::clamp(seconds, 0.1, 20.0);
  std::lock_guard<std::mutex> capture(capture_mu_);
  const bool temporary = !running();
  if (temporary && !Start(hz)) {
    return Folded({}, hz, seconds, query_roots);
  }
  const int used_hz = this->hz();
  const uint64_t t0 = NowNanos();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const uint64_t t1 = NowNanos();
  if (temporary) Stop();
  MDE_OBS_COUNT("prof.captures", 1);
  return Folded(Collect(t0, t1, query_fp), used_hz,
                static_cast<double>(t1 - t0) * 1e-9, query_roots);
}

void Profiler::Reset() {
  for (size_t i = 0, n = ThreadSlotCount(); i < n; ++i) {
    ThreadSlot* s = internal::ThreadSlotAt(i);
    SampleRecord* ring = s->samples.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    s->sample_seq.store(0, std::memory_order_relaxed);
    for (size_t k = 0; k < kRingSize; ++k) {
      ring[k].ts_ns.store(0, std::memory_order_relaxed);
      ring[k].depth.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace mde::obs
