#ifndef MDE_BENCH_BENCH_MAIN_H_
#define MDE_BENCH_BENCH_MAIN_H_

/// Shared benchmark entry point. Every bench binary prints a human-readable
/// experiment preamble (the DESIGN.md narrative tables) followed by the
/// google-benchmark timing loop. For machine-readable output the preamble
/// must be suppressed so that `--benchmark_format=json` emits a single valid
/// JSON document on stdout:
///
///   build/bench/bench_mcdb_tuple_bundles --benchmark_format=json
///       [--benchmark_out=BENCH.json --benchmark_out_format=json]
///
/// MDE_BENCHMARK_MAIN(Preamble) expands to a main() that runs `Preamble()`
/// only when no machine-readable stdout format was requested.
///
/// Every bench binary also accepts (each in `--flag=VALUE` or the
/// space-separated `--flag VALUE` spelling):
///
///   --mde_trace_out=FILE      enable trace spans for the whole run and
///                             write a Chrome trace-event JSON to FILE on
///                             exit. The per-thread span rings drop their
///                             OLDEST events on overflow, so the file holds
///                             the final iterations of each benchmark —
///                             open it at chrome://tracing or
///                             https://ui.perfetto.dev.
///   --mde_metrics_out=FILE    write the final registry snapshot to FILE in
///                             the Prometheus text exposition format on
///                             exit.
///   --mde_metrics_jsonl=FILE  run a background Sampler (obs/export.h) for
///                             the whole run, appending one JSONL registry
///                             record per period to FILE.
///   --mde_metrics_period_ms=N Sampler period (default 50).
///
/// Env knobs (no flags, so they compose with any harness):
///
///   MDE_DIAG_PORT=N   serve live diagnostics on http://127.0.0.1:N for the
///                     whole run (0 = ephemeral; the chosen port is printed
///                     to stderr). Endpoints: /metrics /statusz /queryz
///                     /tracez /flightz /profilez — see obs/http.h.
///   MDE_PROF_HZ=N     with MDE_DIAG_PORT: also run the continuous CPU
///                     profiler at N Hz ("default" = 97).

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "obs/export.h"
#include "obs/http.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace mde::bench {

/// True when argv requests a non-console stdout format (json/csv), in which
/// case nothing but the benchmark document may be written to stdout.
/// Recognizes both `--benchmark_format=json` and the space-separated
/// `--benchmark_format json` spelling.
inline bool MachineReadableStdout(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_format=", 19) == 0 &&
        std::strcmp(argv[i] + 19, "console") != 0) {
      return true;
    }
    if (std::strcmp(argv[i], "--benchmark_format") == 0 && i + 1 < argc &&
        std::strcmp(argv[i + 1], "console") != 0) {
      return true;
    }
  }
  return false;
}

/// benchmark::Initialize only understands `--flag=value`; folds the
/// space-separated `--benchmark_foo bar` spelling into `--benchmark_foo=bar`
/// so both work. Rewritten flags are owned by a function-local static that
/// outlives argv use.
inline void CanonicalizeBenchmarkFlags(int* argc, char** argv) {
  static std::vector<std::string> storage;
  storage.reserve(static_cast<size_t>(*argc));
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0 &&
        std::strchr(argv[i], '=') == nullptr && i + 1 < *argc &&
        argv[i + 1][0] != '-') {
      storage.push_back(std::string(argv[i]) + "=" + argv[i + 1]);
      argv[w++] = storage.back().data();
      ++i;
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
}

/// Consumes `--<name>=VALUE` / `--<name> VALUE` from argv
/// (benchmark::Initialize rejects flags it does not know) and returns the
/// value, or "" when the flag is absent. `name` includes the leading
/// dashes, e.g. "--mde_trace_out".
inline std::string ExtractMdeFlag(int* argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  std::string value;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      value = argv[i] + len + 1;
      continue;
    }
    if (std::strcmp(argv[i], name) == 0 && i + 1 < *argc) {
      value = argv[i + 1];
      ++i;
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
  return value;
}

inline std::string ExtractTraceOut(int* argc, char** argv) {
  return ExtractMdeFlag(argc, argv, "--mde_trace_out");
}

/// Enables tracing when a path was requested; dumps the trace on
/// destruction so the file exists however the benchmarks exit the happy
/// path.
class TraceDump {
 public:
  explicit TraceDump(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) mde::obs::Tracer::Global().Enable();
  }
  ~TraceDump() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    out << mde::obs::Tracer::Global().ChromeTraceJson();
  }

 private:
  std::string path_;
};

/// Writes the final registry snapshot (Prometheus text exposition) on
/// destruction when a path was requested.
class MetricsDump {
 public:
  explicit MetricsDump(std::string path) : path_(std::move(path)) {}
  ~MetricsDump() {
    if (path_.empty()) return;
    std::ofstream out(path_);
    out << mde::obs::PrometheusText();
  }

 private:
  std::string path_;
};

/// Starts the background Sampler when a JSONL path was requested; the
/// returned pointer (null when absent) stops the sampler — writing the
/// final record — when it goes out of scope.
inline std::unique_ptr<mde::obs::Sampler> MaybeStartSampler(
    const std::string& path, const std::string& period_ms) {
  if (path.empty()) return nullptr;
  mde::obs::SamplerOptions options;
  options.path = path;
  options.period = std::chrono::milliseconds(50);
  if (!period_ms.empty()) {
    const long ms = std::strtol(period_ms.c_str(), nullptr, 10);
    if (ms > 0) options.period = std::chrono::milliseconds(ms);
  }
  return std::make_unique<mde::obs::Sampler>(std::move(options));
}

}  // namespace mde::bench

#define MDE_BENCHMARK_MAIN(Preamble)                                    \
  int main(int argc, char** argv) {                                     \
    mde::bench::CanonicalizeBenchmarkFlags(&argc, argv);                \
    const std::string mde_trace_path =                                  \
        mde::bench::ExtractTraceOut(&argc, argv);                       \
    const std::string mde_metrics_path =                                \
        mde::bench::ExtractMdeFlag(&argc, argv, "--mde_metrics_out");   \
    const std::string mde_metrics_jsonl =                               \
        mde::bench::ExtractMdeFlag(&argc, argv, "--mde_metrics_jsonl"); \
    const std::string mde_metrics_period = mde::bench::ExtractMdeFlag(  \
        &argc, argv, "--mde_metrics_period_ms");                        \
    mde::bench::TraceDump mde_trace_dump(mde_trace_path);               \
    mde::bench::MetricsDump mde_metrics_dump(mde_metrics_path);         \
    auto mde_sampler =                                                  \
        mde::bench::MaybeStartSampler(mde_metrics_jsonl,                \
                                      mde_metrics_period);              \
    mde::obs::DiagServer::MaybeStartFromEnv();                          \
    if (!mde::bench::MachineReadableStdout(argc, argv)) {               \
      Preamble();                                                       \
    }                                                                   \
    benchmark::Initialize(&argc, argv);                                 \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {           \
      return 1;                                                         \
    }                                                                   \
    /* Kernel tier into the JSON/console context: numbers from different \
       dispatch tiers must never be compared as like for like. */       \
    benchmark::AddCustomContext(                                        \
        "mde_simd_tier",                                                \
        mde::simd::TierName(mde::simd::ActiveTier()));                  \
    benchmark::RunSpecifiedBenchmarks();                                \
    benchmark::Shutdown();                                              \
    return 0;                                                           \
  }

#endif  // MDE_BENCH_BENCH_MAIN_H_
