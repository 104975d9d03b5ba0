#ifndef MDE_OBS_FLIGHT_H_
#define MDE_OBS_FLIGHT_H_

#include <cstddef>
#include <cstdint>
#include <string>

/// Crash flight recorder: an always-on, lock-free ring of recent span opens
/// plus each thread's active query context, dumped to a JSON artifact when
/// something goes wrong — from the `ckpt::FaultInjector` fire path, from a
/// fatal-signal handler, or on demand. The black-box principle: by the time
/// a crash happens it is too late to turn tracing on, so the recorder keeps
/// the last `kSpanRingSize` span opens per thread at all times and a crash
/// costs only the dump.
///
/// Write path: the span-open ring and context mirror live in the recording
/// thread's obs slot (obs/thread_slot.h), as relaxed atomics. Once the
/// thread holds its slot, recording takes no lock and allocates nothing, so
/// it is safe from any context including a signal handler's victim thread.
/// Span names must be string literals.
///
/// Read path: `DumpToFile` (normal code) snapshots slots + the metrics
/// registry and writes tmp+rename atomically; `DumpFromSignal` uses only
/// async-signal-safe calls (a fixed stack buffer drained by write(2) to a
/// path pre-resolved at handler-install time) and skips the mutex-guarded
/// metrics registry. Both format contexts and spans with one writer, and
/// either way the artifact is one JSON document `{"flight":{...}}`
/// readable by `mde_report --flight`.
///
/// Field tearing: a reader can observe a half-updated span record (each
/// field is individually atomic but the record is not). Post-mortem
/// tolerance, not linearizability, is the contract — at worst one record
/// per thread mixes two spans.
namespace mde::obs {

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Retained span opens per thread (newest win).
  static constexpr size_t kSpanRingSize = 128;

  /// Appends a span-open record to the calling thread's ring. `name` must
  /// be a string literal.
  void RecordSpanOpen(const char* name, uint64_t ts_ns, uint64_t trace_id,
                      uint64_t span_id, uint64_t parent_span_id);

  /// Renders the full live artifact `{"flight":{...}}` (contexts + spans +
  /// metrics snapshot) as one JSON document — exactly what DumpToFile
  /// writes; /flightz serves it without crashing anything.
  std::string RenderJson(const std::string& reason) const;

  /// Writes the full artifact (contexts + spans + metrics snapshot) to
  /// `path` atomically via tmp+rename. Returns false on I/O failure.
  bool DumpToFile(const std::string& path, const std::string& reason);

  /// Async-signal-safe dump (contexts + spans only, no metrics) to the
  /// path captured by InstallCrashHandler — callable from a signal handler.
  static void DumpFromSignal(const char* reason);

  /// Installs fatal-signal handlers (SEGV/ABRT/BUS/FPE/ILL) that dump to
  /// $MDE_FLIGHT_PATH (default "mde_flight.json") and re-raise. Idempotent.
  static void InstallCrashHandler();

  /// $MDE_FLIGHT_PATH or "mde_flight.json" — where fault-path dumps land.
  static std::string DefaultPath();

  /// Clears all retained spans and contexts (tests only).
  void Reset();

 private:
  FlightRecorder() = default;
};

}  // namespace mde::obs

#endif  // MDE_OBS_FLIGHT_H_
