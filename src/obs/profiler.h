#ifndef MDE_OBS_PROFILER_H_
#define MDE_OBS_PROFILER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// Always-on continuous CPU profiler with per-query attribution.
///
/// Mechanism: every recording thread owns a POSIX per-thread CPU-time timer
/// (`timer_create` on the clock from `pthread_getcpuclockid`, delivery via
/// `SIGEV_THREAD_ID`/`SIGPROF`), so a thread receives one signal per
/// 1/hz seconds of CPU it actually burns — blocked threads cost nothing and
/// sample counts are scheduling-invariant. The async-signal-safe handler
/// captures the stack (`backtrace`, primed at first Start so it cannot
/// dlopen inside a handler) plus the thread's live query fingerprint/tag
/// (mirrored into the thread's obs slot by `obs::internal::Install`, so the
/// handler never touches foreign TLS) into the slot's lock-free ring of
/// recent samples — the same drop-oldest black-box discipline as
/// the flight recorder. Nothing in the signal path allocates, locks, or
/// symbolizes.
///
/// Reading: `Collect` snapshots the rings filtered by a time window and an
/// optional query fingerprint; `Folded` renders collapsed stacks
/// ("root;...;leaf count") with symbolization (`dladdr` +
/// `abi::__cxa_demangle`, memoized) done entirely off the signal path.
/// `CaptureFolded` is the /profilez slice: profile for N seconds (reusing a
/// running session or starting a temporary one) and fold what landed in the
/// window.
///
/// Tearing contract (same as obs/flight.h): each sample field is
/// individually atomic but a record is not — a reader racing the owner can
/// observe one mixed sample per thread. Collection is windowed by the
/// timestamp field, written LAST with release order, so a torn record is
/// overwhelmingly excluded from the window being read. Post-mortem/profile
/// tolerance, not linearizability.
///
/// Determinism: the profiler is write-only side-band state — no engine code
/// reads a sample — so enabling it cannot change any result bit (asserted
/// engine-level in obs_http_test at {1,2,8} threads).
namespace mde::obs {

class Profiler {
 public:
  static Profiler& Global();

  /// Deepest stack recorded per sample. A deeper stack keeps its innermost
  /// kMaxFrames frames and counts the sample on `samples_truncated()`,
  /// published as the `prof.truncated` counter on each metrics export.
  static constexpr size_t kMaxFrames = 32;
  /// Retained samples per thread (newest win). At the default rate a busy
  /// thread wraps after kRingSize/97 ~ 21 s — /profilez windows must be
  /// shorter than that, which the endpoint clamps to.
  static constexpr size_t kRingSize = 2048;
  /// Default sampling rate. 97 Hz, prime on purpose: never an integer
  /// divisor of millisecond-periodic engine work, so samples cannot phase-
  /// lock to a loop and systematically hit (or miss) the same statement.
  static constexpr int kDefaultHz = 97;

  /// Starts process-wide continuous sampling at `hz` (clamped to
  /// [1, 1000]). Arms one CPU timer per live thread slot
  /// (obs/thread_slot.h), the caller's included; a thread that takes a
  /// slot while the session runs is armed then. A slot's sample ring is
  /// allocated when its timer is first armed, so threads cost no sample
  /// memory until profiling starts. Returns false when already running or
  /// when no timer could be created.
  bool Start(int hz = kDefaultHz);

  /// Disarms and deletes every timer. Retained samples stay collectable.
  void Stop();

  bool running() const;
  int hz() const;

  /// Total samples ever recorded.
  uint64_t samples_recorded() const;
  /// Of those, the samples whose stack was cut to kMaxFrames frames.
  uint64_t samples_truncated() const;

  /// One collected sample (raw PCs; symbolize at render time).
  struct Sample {
    uint64_t ts_ns = 0;
    uint64_t fingerprint = 0;  // active query at sample time (0 = none)
    const char* tag = nullptr;
    std::vector<uintptr_t> pcs;  // leaf first
  };

  /// Snapshots every thread's retained samples with ts_ns in
  /// [since_ns, until_ns) (until_ns == 0 means "now"). `query_fp` != 0
  /// keeps only samples attributed to that fingerprint.
  std::vector<Sample> Collect(uint64_t since_ns, uint64_t until_ns,
                              uint64_t query_fp = 0) const;

  /// Renders samples as folded stacks — one "frame;frame;...;frame N" line
  /// per distinct stack, root first, count-descending — preceded by one
  /// "# mde_profile hz=H samples=N window_s=S" comment line carrying the
  /// metadata mde_report needs (flamegraph tools skip '#' lines). With
  /// `query_roots`, each stack gains a synthetic root frame
  /// "query:0x<fp>" / "query:-" so per-query totals survive folding.
  static std::string Folded(const std::vector<Sample>& samples, int hz,
                            double window_s, bool query_roots);

  /// The /profilez slice: samples for `seconds` (clamped to [0.1, 20]) and
  /// returns the folded text for the window, filtered to `query_fp` when
  /// nonzero. Reuses the running continuous session if any, otherwise runs
  /// a temporary one at `hz`. Captures are serialized; the calling thread
  /// blocks for the window.
  std::string CaptureFolded(double seconds, uint64_t query_fp = 0,
                            bool query_roots = false, int hz = kDefaultHz);

  /// Drops all retained samples (tests only; timers stay armed).
  void Reset();

 private:
  Profiler() = default;

  std::mutex capture_mu_;  // serializes CaptureFolded windows
};

/// Best-effort symbol for a PC: `dladdr` name (demangled) or
/// "module+0xoffset" or "0xaddress". Memoized; call off the signal path
/// only.
std::string SymbolizePc(uintptr_t pc);

}  // namespace mde::obs

#endif  // MDE_OBS_PROFILER_H_
