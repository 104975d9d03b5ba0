/// perfbench: the engine's benchmark. Usually started through
/// perfbench/run.py, which builds it first.
///
///   perfbench --workload serve_hot|serve_churn|batch_analytics
///             --seed N --seconds S --trace 0|1
///             [--git-hash H] [--source-digest D] [--trace-out FILE]
///
/// Untraced (--trace 0) runs report every end-to-end metric:
///   1. set-up; it is timed again after each slice (seven times in all,
///      spread over the run), and setup_s is the median;
///   2. the workload's own phase (3/4 of --seconds) interleaved in six
///      slices with a reference phase (1/4 of --seconds) of the other
///      operation family: batch rounds beside a serve workload, serve_churn
///      traffic beside batch_analytics. The reference phase supplies the
///      metrics the workload's own operations cannot, so every run reports
///      every metric; peak_rss_mb is read before it is set up;
///   3. the correctness audits of both phases.
/// Traced (--trace 1) runs report the per-layer metrics of the layers the
/// workload uses: untraced and traced slices alternate (half of --seconds
/// each); no reference phase.
///
/// The last stdout line is the result:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// run.py completes it against BENCHMARK.json.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "batch_workload.h"
#include "context.h"
#include "result.h"
#include "serve_workloads.h"
#include "stats.h"

namespace {

using perfbench::BatchBench;
using perfbench::RunOptions;
using perfbench::RunResult;
using perfbench::ServeBench;

struct Args {
  std::string workload;
  unsigned long long seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string git_hash = "unknown";
  std::string source_digest = "unknown";
  std::string trace_out;
};

bool Token(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (k == "--git-hash") {
      if (!Token(v)) return false;
      a->git_hash = v;
    } else if (k == "--source-digest") {
      if (!Token(v)) return false;
      a->source_digest = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->trace >= 0 &&
         a->seconds > 0.0 && a->seconds <= 600.0;
}

/// Each phase runs in this many slices, alternating with the other phase
/// of the run, so a disturbance of a few seconds touches every metric a
/// little instead of one metric a lot.
constexpr int kSlices = 6;

/// A traced run: untraced and traced slices alternate on one set-up.
template <typename Bench>
void RunTraced(Bench& bench, const RunOptions& opts) {
  bench.Setup();
  typename Bench::Phase untraced;
  typename Bench::Phase traced;
  const double slice = opts.seconds / (2 * kSlices);
  for (int k = 0; k < kSlices; ++k) {
    bench.RunPhase(slice, false, &untraced);
    bench.RunPhase(slice, true, &traced);
  }
  bench.Audit();
  bench.ReportLayers(untraced, traced);
}

/// An untraced run: the workload's own phase interleaved with the
/// reference phase of the other operation family (see the file comment).
template <typename Bench, typename Reference>
void RunUntraced(Bench& bench, Reference& reference, const RunOptions& opts,
                 RunResult* result) {
  // Set-up is timed once more after every slice, so its median spans the
  // run like the other metrics.
  std::vector<double> setups = {bench.Setup()};
  typename Bench::Phase own;
  typename Reference::Phase ref;
  for (int k = 0; k < kSlices; ++k) {
    bench.RunPhase(opts.seconds * 0.75 / kSlices, false, &own);
    if (k == 0) {
      // The workload's own footprint, before the reference phase exists.
      result->Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
      reference.Setup();
    }
    reference.RunPhase(opts.seconds * 0.25 / kSlices, false, &ref);
    setups.push_back(bench.ProbeSetup());
  }
  result->Add("setup_s", perfbench::Median(setups), "s");
  std::printf("{\"diag\":\"setup_s\",\"each\":[");
  for (size_t i = 0; i < setups.size(); ++i) {
    std::printf("%s%.6f", i == 0 ? "" : ",", setups[i]);
  }
  std::printf("]}\n");
  bench.ReportEndToEnd(own);
  reference.ReportEndToEnd(ref);
  bench.Audit();
  reference.Audit();
}

/// Prints the metrics the run measured, in the order it measured them.
/// run.py orders them as BENCHMARK.json lists them and checks that every
/// end-to-end metric is there.
void PrintResult(const RunResult& result) {
  bool finite = true;
  std::string body;
  for (const perfbench::Metric& m : result.metrics()) {
    double v = m.value;
    if (!std::isfinite(v)) {
      finite = false;
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    body += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() && finite ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()), body.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_hot|serve_churn|"
                 "batch_analytics --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const bool serve = args.workload == "serve_hot" || args.workload == "serve_churn";
  if (!serve && args.workload != "batch_analytics") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  RunOptions opts;
  opts.seed = args.seed;
  opts.seconds = args.seconds;
  opts.trace = args.trace == 1;
  // Load from one process, at most four threads, clients/writer/pool included.
  opts.threads = std::min(4u, perfbench::AvailableCpus());
  opts.trace_path = args.trace_out;
  std::printf("{\"context\": %s}\n",
              perfbench::ContextJson(args.workload, args.seed, args.seconds,
                                     opts.trace, opts.threads, args.git_hash,
                                     args.source_digest)
                  .c_str());

  RunResult result;
  if (serve) {
    ServeBench bench(args.workload == "serve_hot"
                         ? perfbench::ServeHotConfig()
                         : perfbench::ServeChurnConfig(opts.seed),
                     opts, &result);
    if (opts.trace) {
      RunTraced(bench, opts);
    } else {
      BatchBench reference(opts, &result);
      RunUntraced(bench, reference, opts, &result);
    }
  } else {
    BatchBench bench(opts, &result);
    if (opts.trace) {
      RunTraced(bench, opts);
    } else {
      ServeBench reference(perfbench::ServeChurnConfig(opts.seed), opts,
                           &result);
      RunUntraced(bench, reference, opts, &result);
    }
  }
  PrintResult(result);
  return 0;
}
