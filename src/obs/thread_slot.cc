#include "obs/thread_slot.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <set>
#include <string>

namespace mde::obs {

namespace {

/// Slots handed out so far. Constant-initialized, so the crash dump's
/// signal path reads them without constructing anything; g_slots[i] is
/// written once, before g_count is raised past i (release).
internal::ThreadSlot* g_slots[kMaxThreads] = {};
std::atomic<uint32_t> g_count{0};

struct SlotRegistry {
  std::mutex mu;
  std::vector<internal::ThreadSlot*> free_slots;  // guarded by mu
  std::set<std::string> names;                    // guarded by mu
};

SlotRegistry& Slots() {
  static SlotRegistry* r = new SlotRegistry();  // leaked: outlives threads
  return *r;
}

/// Thread-exit hook: the one place a thread gives its slot back.
struct SlotHandle {
  internal::ThreadSlot* slot = nullptr;
  bool exited = false;

  ~SlotHandle() {
    exited = true;
    internal::ThreadSlot* s = slot;
    if (s == nullptr) return;
    slot = nullptr;  // before the timer goes: a late SIGPROF drops out
    SlotRegistry& reg = Slots();
    std::lock_guard<std::mutex> lock(reg.mu);
    internal::DisarmProfilerTimerLocked(s);
    s->live = false;
    // The thread and its query are gone; retained records stay readable.
    s->ctx_trace_id.store(0, std::memory_order_relaxed);
    s->ctx_fingerprint.store(0, std::memory_order_relaxed);
    s->ctx_tag.store(nullptr, std::memory_order_relaxed);
    reg.free_slots.push_back(s);
  }
};

thread_local SlotHandle tls_handle;

internal::ThreadSlot* AcquireSlot() {
  SlotRegistry& reg = Slots();
  std::lock_guard<std::mutex> lock(reg.mu);
  internal::ThreadSlot* s = nullptr;
  if (!reg.free_slots.empty()) {
    s = reg.free_slots.back();
    reg.free_slots.pop_back();
  } else {
    const uint32_t n = g_count.load(std::memory_order_relaxed);
    if (n >= kMaxThreads) return nullptr;  // not instrumented, by design
    s = new internal::ThreadSlot();  // never freed: readers hold raw pointers
    s->index = n;
    g_slots[n] = s;
    g_count.store(n + 1, std::memory_order_release);
  }
  s->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  s->pthread = pthread_self();
  s->live = true;
  s->named = false;
  internal::ArmProfilerTimerLocked(s);
  return s;
}

}  // namespace

size_t ThreadSlotCount() { return g_count.load(std::memory_order_acquire); }

namespace internal {

ThreadSlot* CurrentThreadSlot() {
  SlotHandle& h = tls_handle;
  if (h.slot == nullptr && !h.exited) h.slot = AcquireSlot();
  return h.slot;
}

ThreadSlot* HeldThreadSlot() { return tls_handle.slot; }

ThreadSlot* ThreadSlotAt(size_t i) { return g_slots[i]; }

std::mutex& SlotRegistryMutex() { return Slots().mu; }

}  // namespace internal

void SetCurrentThreadName(const std::string& name) {
  internal::ThreadSlot* s = internal::CurrentThreadSlot();
  if (s == nullptr) return;
  SlotRegistry& reg = Slots();
  std::lock_guard<std::mutex> lock(reg.mu);
  // std::set nodes are stable, so the interned c_str lives forever; release
  // publishes its bytes to dump readers on other threads.
  s->name.store(reg.names.insert(name).first->c_str(),
                std::memory_order_release);
  s->named = true;
}

void EnsureCurrentThreadNamed(const char* fallback) {
  internal::ThreadSlot* s = internal::CurrentThreadSlot();
  if (s != nullptr && !s->named) SetCurrentThreadName(fallback);
}

}  // namespace mde::obs
