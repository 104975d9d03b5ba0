#ifndef MDE_OBS_THREAD_SLOT_H_
#define MDE_OBS_THREAD_SLOT_H_

#include <pthread.h>
#include <sys/types.h>
#include <time.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/flight.h"
#include "obs/profiler.h"
#include "obs/trace.h"

/// The per-thread state of the obs stack, shared by the tracer, the flight
/// recorder and the profiler. A thread takes a slot on its first
/// instrumented act and gives it back to one free list at exit, so threads
/// that come and go reuse a bounded set; a recycled slot's retained records
/// show under its current holder's name. The three rings stay separate:
/// their retention (128 / 16384 / 2048 records) and write contracts
/// (relaxed atomics / the slot's mutex / a SIGPROF handler) differ, and one
/// ring at the tracer's size would cost every thread ~0.9 MB of memory.
namespace mde::obs {

/// Maximum live instrumented threads. A thread beyond the cap is not
/// traced, recorded or sampled; slots are recycled at thread exit, so only
/// a process with more LIVE instrumented threads ever reaches it.
inline constexpr size_t kMaxThreads = 256;

/// Slots handed out so far (at most kMaxThreads); slot indices are
/// [0, ThreadSlotCount()).
size_t ThreadSlotCount();

namespace internal {

struct SpanOpenRecord {
  std::atomic<const char*> name{nullptr};
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> span_id{0};
  std::atomic<uint64_t> parent_span_id{0};
};

/// One profiler sample as the signal handler writes it: ts_ns is zeroed
/// first and written last (release), so windowed readers skip a record
/// that is being written.
struct SampleRecord {
  std::atomic<uint64_t> ts_ns{0};
  std::atomic<uint64_t> fingerprint{0};
  std::atomic<const char*> tag{nullptr};
  std::atomic<uint32_t> depth{0};
  std::atomic<uintptr_t> pcs[Profiler::kMaxFrames];
};

struct ThreadSlot {
  uint32_t index = 0;  // lane tid; "thread-<index>" while never named
  std::atomic<const char*> name{nullptr};  // interned; kept on recycling
  bool named = false;  // by the current holder (owner thread only)

  /// The holder's active query, mirrored by internal::Install so crash
  /// dumps and the SIGPROF handler never read another thread's TLS.
  std::atomic<uint64_t> ctx_trace_id{0};
  std::atomic<uint64_t> ctx_fingerprint{0};
  std::atomic<const char*> ctx_tag{nullptr};

  SpanOpenRecord span_ring[FlightRecorder::kSpanRingSize];
  std::atomic<uint64_t> span_seq{0};  // next write at span_seq % size

  std::mutex trace_mu;
  std::vector<TraceEvent> trace_ring;  // guarded by trace_mu, as are
  size_t trace_head = 0;               // head and count
  size_t trace_count = 0;

  /// kRingSize samples, allocated with the slot's first timer; never freed.
  std::atomic<SampleRecord*> samples{nullptr};
  std::atomic<uint64_t> sample_seq{0};
  /// Holder identity and timer state, guarded by SlotRegistryMutex().
  pid_t tid = 0;
  pthread_t pthread{};
  bool live = false;
  bool timer_armed = false;
  timer_t timer{};
};

/// The calling thread's slot, acquired on first use; nullptr when
/// kMaxThreads slots are live or the thread is exiting.
ThreadSlot* CurrentThreadSlot();
/// The calling thread's slot if it holds one; never acquires, so the
/// SIGPROF handler may call it.
ThreadSlot* HeldThreadSlot();
/// Slot `i` < ThreadSlotCount(). Slots are never freed.
ThreadSlot* ThreadSlotAt(size_t i);
/// Guards the free list, the name intern, every slot's holder and timer
/// fields, and the profiler's session state.
std::mutex& SlotRegistryMutex();

/// Arms `slot`'s profiler timer when a session is running (true if armed),
/// or disarms it. Caller holds SlotRegistryMutex(). Defined in profiler.cc.
bool ArmProfilerTimerLocked(ThreadSlot* slot);
void DisarmProfilerTimerLocked(ThreadSlot* slot);

}  // namespace internal
}  // namespace mde::obs

#endif  // MDE_OBS_THREAD_SLOT_H_
