#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "util/rng.h"

/// What one benchmark run reports: operations attempted and failed, the
/// metrics of the requested kind (end-to-end or per-layer), and diagnostic
/// lines printed ahead of the final JSON line.
namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class RunResult {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// A failed operation (an error or a failed correctness check).
  void Fail(const std::string& why, uint64_t n = 1) {
    if (n == 0) return;
    failed_ += n;
    if (fail_notes_ < 20) {
      ++fail_notes_;
      std::fprintf(stderr, "perfbench: FAILED (%llu): %s\n",
                   static_cast<unsigned long long>(n), why.c_str());
    }
  }
  /// A run-level check (not tied to one operation); failing it makes the
  /// run incorrect without inflating the failed-operation count.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    checks_ok_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }

  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Prints one diagnostic JSON line for a latency sample.
  static void PrintSummary(const std::string& what, const Summary& s,
                           const char* unit, double scale) {
    std::printf(
        "{\"diag\":\"%s\",\"n\":%zu,\"p50\":%.6g,\"tail_p\":%.4g,"
        "\"tail\":%.6g,\"tail_beyond\":%zu,\"unit\":\"%s\"}\n",
        what.c_str(), s.n, s.p50 * scale, s.tail_p * 100.0, s.tail * scale,
        s.tail_beyond, unit);
  }

  bool correct() const { return checks_ok_ && failed_ == 0 && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int fail_notes_ = 0;
  bool checks_ok_ = true;
  std::vector<Metric> metrics_;
};

/// Derives an input seed from the run's seed and a salt.
inline uint64_t SeedMix(uint64_t a, uint64_t b) {
  return mde::SplitMix64(a * 0x9e3779b97f4a7c15ULL ^ b).Next();
}

/// IEEE-754 bit pattern: answers are compared bit for bit.
inline uint64_t DoubleBits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Adds the per-layer split of a traced phase: each of `layers`' share of
/// the traced threads' wall time `window_ns`, the share all layers cover
/// together, and the check that they add up to it within 5%.
inline void AddLayerSplit(const std::vector<Span>& spans,
                          const std::vector<uint64_t>& self, uint64_t window_ns,
                          std::initializer_list<Layer> layers,
                          const std::string& workload, RunResult* result) {
  const auto totals = LayerSelfTotals(spans, self);
  const double whole = static_cast<double>(window_ns > 0 ? window_ns : 1);
  for (Layer l : layers) {
    result->Add(std::string("layer.") + LayerName(l) + ".self_share",
                static_cast<double>(totals[static_cast<size_t>(l)]) / whole,
                "ratio");
  }
  uint64_t sum = 0;
  for (uint64_t t : totals) sum += t;
  result->Add("layers.coverage", static_cast<double>(sum) / whole, "ratio");
  result->Check(LayersAddUp(totals, window_ns, 0.05),
                workload + ": per-layer self times do not add up to the "
                "traced wall time within 5%");
}

/// Options shared by every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Client sessions / pool width budget (threads in use, all included).
  unsigned threads = 4;
  /// Where the traced run writes its span file ("" = nowhere).
  std::string trace_path;
};

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_
