#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "stats.h"

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kServe: return "serve";
    case Layer::kServeMvcc: return "serve_mvcc";
    case Layer::kSimsql: return "simsql";
    case Layer::kMcdb: return "mcdb";
    case Layer::kTable: return "table";
    case Layer::kBench: return "bench";
    case Layer::kCount: break;
  }
  return "unknown";
}

ThreadTrace& CurrentTrace() {
  thread_local ThreadTrace trace;
  return trace;
}

SpanLog::SpanLog(uint32_t thread, size_t capacity)
    : thread_(thread), capacity_(capacity), serial_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {
  spans_.reserve(capacity);
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  by_id.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);

  // Child intervals grouped by parent index, clipped to the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) continue;
    const Span& p = spans[it->second];
    const uint64_t lo = std::max(s.start_ns, p.start_ns);
    const uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[it->second].emplace_back(lo, hi);
  }

  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::array<uint64_t, kNumLayers> LayerSelfTotals(
    const std::vector<Span>& spans, const std::vector<uint64_t>& self) {
  std::array<uint64_t, kNumLayers> totals{};
  for (size_t i = 0; i < spans.size(); ++i) {
    totals[static_cast<size_t>(spans[i].layer)] += self[i];
  }
  return totals;
}

double SpanMedianNs(const std::vector<Span>& spans,
                    const std::vector<uint64_t>* self, const char* name,
                    bool (*keep)(uint8_t flags)) {
  std::vector<double> v;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::strcmp(s.name, name) != 0) continue;
    if (keep != nullptr && !keep(s.flags)) continue;
    v.push_back(static_cast<double>(self != nullptr ? (*self)[i]
                                                    : s.duration()));
  }
  return v.empty() ? 0.0 : Summarize(&v, 0.5).p50;
}

bool LayersAddUp(const std::array<uint64_t, kNumLayers>& totals,
                 uint64_t wall_ns, double tolerance) {
  if (wall_ns == 0) return false;
  uint64_t sum = 0;
  for (uint64_t t : totals) sum += t;
  const double share = static_cast<double>(sum) / static_cast<double>(wall_ns);
  return share >= 1.0 - tolerance && share <= 1.0 + tolerance;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t t0 = ~0ull;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  const size_t n = std::min(max_spans, spans.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"flags\":%u}}",
                 i == 0 ? "" : ",\n", s.name, LayerName(s.layer), s.thread,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.duration()) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned>(s.flags));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
