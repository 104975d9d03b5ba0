#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "obs/context.h"
#include "obs/json.h"
#include "obs/mem.h"
#include "obs/trace.h"

#ifndef MDE_GIT_HASH
#define MDE_GIT_HASH "unknown"
#endif

namespace mde::obs {

namespace {

struct LabelStore {
  std::mutex mu;
  std::map<std::string, std::string> labels;
};

LabelStore& Labels() {
  static LabelStore* s = new LabelStore();  // leaked: outlives static dtors
  return *s;
}

/// Captured when the obs library initializes (static init of this TU),
/// which for all practical purposes is process start.
const uint64_t g_process_start_ns = NowNanos();

std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Round-trip double formatting: enough digits that parsing the text
/// recovers the exact bit pattern (integers render without a point).
std::string RoundTrip(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

/// JSON has no Inf/NaN literals; non-finite values serialize as null.
void JsonNumber(double v, std::ostream& os) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

const char* PrometheusKindName(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

std::string PrometheusText(const std::vector<MetricSnapshot>& snapshot) {
  std::ostringstream os;
  for (const MetricSnapshot& m : snapshot) {
    const std::string name = SanitizeMetricName(m.name);
    os << "# TYPE " << name << " " << PrometheusKindName(m.kind) << "\n";
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        os << name << " " << static_cast<uint64_t>(m.value) << "\n";
        break;
      case MetricSnapshot::Kind::kGauge:
        os << name << " " << RoundTrip(m.value) << "\n";
        break;
      case MetricSnapshot::Kind::kHistogram: {
        // The registry stores per-bucket counts; the exposition format
        // wants running totals with a final le="+Inf" bucket == _count.
        uint64_t cumulative = 0;
        for (size_t b = 0; b < m.buckets.size(); ++b) {
          cumulative += m.buckets[b];
          os << name << "_bucket{le=\"";
          if (b < m.bounds.size()) {
            os << RoundTrip(m.bounds[b]);
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative << "\n";
        }
        os << name << "_sum " << RoundTrip(m.value) << "\n";
        os << name << "_count " << m.count << "\n";
        break;
      }
    }
  }
  return os.str();
}

std::string PrometheusText() {
  RunSampleHooks();
  std::vector<MetricSnapshot> snapshot = Registry::Global().Snapshot();
  AppendDerivedGauges(&snapshot);
  return PrometheusText(snapshot) + BuildInfoText() + AttributionText();
}

void SetRuntimeLabel(const std::string& key, const std::string& value) {
  LabelStore& s = Labels();
  std::lock_guard<std::mutex> lock(s.mu);
  s.labels[key] = value;
}

std::string GetRuntimeLabel(const std::string& key) {
  LabelStore& s = Labels();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.labels.find(key);
  return it != s.labels.end() ? it->second : "unknown";
}

const char* BuildGitHash() { return MDE_GIT_HASH; }

double ProcessUptimeSeconds() {
  return static_cast<double>(NowNanos() - g_process_start_ns) * 1e-9;
}

std::string BuildInfoText() {
  std::ostringstream os;
  os << "# TYPE mde_build_info gauge\n"
     << "mde_build_info{git_hash=\"" << EscapeLabelValue(BuildGitHash())
     << "\",simd_tier=\"" << EscapeLabelValue(GetRuntimeLabel("simd_tier"))
     << "\"} 1\n";
  os << "# TYPE mde_process_uptime_seconds gauge\n"
     << "mde_process_uptime_seconds " << RoundTrip(ProcessUptimeSeconds())
     << "\n";
  const ProcessMemory mem = SampleProcessMemory();
  if (mem.ok) {
    os << "# TYPE mde_process_rss_bytes gauge\n"
       << "mde_process_rss_bytes " << mem.rss_kb * 1024 << "\n";
    os << "# TYPE mde_process_peak_rss_bytes gauge\n"
       << "mde_process_peak_rss_bytes " << mem.peak_rss_kb * 1024 << "\n";
  }
  return os.str();
}

std::string AttributionText() {
  const std::vector<AttributionTable::Row> rows =
      AttributionTable::Global().Snapshot();
  if (rows.empty()) return "";
  // One labeled sample per (query, field). Label values: the fingerprint in
  // hex and the entry-point tag; tags are literals like "table.query", but
  // escape anyway per the exposition grammar.
  struct Field {
    const char* name;
    uint64_t AttributionTable::Row::*member;
  };
  static constexpr Field kFields[] = {
      {"mde_query_cpu_ns", &AttributionTable::Row::cpu_ns},
      {"mde_query_tasks", &AttributionTable::Row::tasks},
      {"mde_query_spans", &AttributionTable::Row::spans},
      {"mde_query_rows_in", &AttributionTable::Row::rows_in},
      {"mde_query_rows_out", &AttributionTable::Row::rows_out},
      {"mde_query_vg_draws", &AttributionTable::Row::vg_draws},
      {"mde_query_bundle_bytes", &AttributionTable::Row::bundle_bytes},
      {"mde_query_cache_hits", &AttributionTable::Row::cache_hits},
  };
  std::ostringstream os;
  for (const Field& f : kFields) {
    os << "# TYPE " << f.name << " counter\n";
    for (const AttributionTable::Row& r : rows) {
      os << f.name << "{query=\"" << FingerprintHex(r.fingerprint)
         << "\",tag=\"" << EscapeLabelValue(r.tag) << "\"} " << r.*f.member
         << "\n";
    }
  }
  return os.str();
}

namespace {

struct HookRegistry {
  std::mutex mu;
  std::map<uint64_t, SampleHook> hooks;
  uint64_t next_id = 1;
};

HookRegistry& Hooks() {
  static HookRegistry* h = new HookRegistry();  // leaked: outlives statics
  return *h;
}

}  // namespace

uint64_t RegisterSampleHook(SampleHook hook) {
  HookRegistry& reg = Hooks();
  std::lock_guard<std::mutex> lock(reg.mu);
  const uint64_t id = reg.next_id++;
  reg.hooks.emplace(id, std::move(hook));
  return id;
}

void UnregisterSampleHook(uint64_t id) {
  HookRegistry& reg = Hooks();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.hooks.erase(id);
}

void RunSampleHooks() {
  HookRegistry& reg = Hooks();
  // Hooks run under the lock on purpose: UnregisterSampleHook blocks until
  // an in-flight run finishes, so "unregister then destruct" is race-free
  // for hook owners (see export.h).
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [id, hook] : reg.hooks) hook();
}

void AppendDerivedGauges(std::vector<MetricSnapshot>* snapshot) {
  // Pair up obs.mem.<pool>.alloc_bytes / .freed_bytes counters. The
  // snapshot is name-sorted, so alloc precedes freed for the same pool.
  static const std::string kPrefix = "obs.mem.";
  static const std::string kAlloc = ".alloc_bytes";
  std::vector<MetricSnapshot> derived;
  for (const MetricSnapshot& m : *snapshot) {
    if (m.kind != MetricSnapshot::Kind::kCounter) continue;
    if (m.name.rfind(kPrefix, 0) != 0 || m.name.size() <= kAlloc.size() ||
        m.name.compare(m.name.size() - kAlloc.size(), kAlloc.size(),
                       kAlloc) != 0) {
      continue;
    }
    const std::string pool = m.name.substr(
        kPrefix.size(), m.name.size() - kPrefix.size() - kAlloc.size());
    double freed = 0.0;
    const std::string freed_name = kPrefix + pool + ".freed_bytes";
    for (const MetricSnapshot& f : *snapshot) {
      if (f.name == freed_name) {
        freed = f.value;
        break;
      }
    }
    MetricSnapshot live;
    live.name = kPrefix + pool + ".live_bytes";
    live.kind = MetricSnapshot::Kind::kGauge;
    live.value = m.value > freed ? m.value - freed : 0.0;
    derived.push_back(std::move(live));
  }
  for (auto& d : derived) snapshot->push_back(std::move(d));
}

Sampler::Sampler(SamplerOptions options) : options_(std::move(options)) {
  out_.open(options_.path, std::ios::out | std::ios::trunc);
  start_ = std::chrono::steady_clock::now();
  if (!out_.is_open()) {
    stopped_ = true;  // nothing to do; Stop() stays a no-op
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

Sampler::~Sampler() { Stop(); }

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  // Final record: short runs always get at least one complete sample, and
  // the last line holds the end-of-run totals the report tool reads.
  const auto now = std::chrono::steady_clock::now();
  WriteSample(std::chrono::duration<double, std::milli>(now - start_).count());
  out_.flush();
  out_.close();
}

void Sampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, options_.period,
                     [this] { return stop_requested_; })) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    const double t_ms =
        std::chrono::duration<double, std::milli>(now - start_).count();
    // The registry snapshot and file write happen outside the engine's
    // world entirely; holding mu_ here only serializes with Stop().
    WriteSample(t_ms);
  }
}

void Sampler::WriteSample(double t_ms) {
  if (!out_.is_open()) return;
  RunSampleHooks();
  if (options_.include_process_memory) PublishProcessMemoryGauges();
  std::vector<MetricSnapshot> snapshot = Registry::Global().Snapshot();
  AppendDerivedGauges(&snapshot);

  std::ostringstream os;
  const auto escaped = [&os](char c) { os.put(c); };
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"t_ms\":" << t_ms;

  os << ",\"counters\":{";
  bool first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricSnapshot::Kind::kCounter) continue;
    auto [it, inserted] = last_counters_.try_emplace(m.name, 0.0);
    const double delta = m.value - it->second;
    it->second = m.value;
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscape(m.name, escaped);
    os << "\":{\"v\":" << static_cast<uint64_t>(m.value)
       << ",\"d\":" << static_cast<uint64_t>(delta < 0.0 ? 0.0 : delta)
       << "}";
  }
  os << "},\"gauges\":{";
  first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricSnapshot::Kind::kGauge) continue;
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscape(m.name, escaped);
    os << "\":";
    JsonNumber(m.value, os);
  }
  os << "},\"hist\":{";
  first = true;
  for (const MetricSnapshot& m : snapshot) {
    if (m.kind != MetricSnapshot::Kind::kHistogram) continue;
    if (!first) os << ",";
    first = false;
    os << "\"";
    JsonEscape(m.name, escaped);
    os << "\":{\"count\":" << m.count << ",\"sum\":";
    JsonNumber(m.value, os);
    os << ",\"bounds\":[";
    for (size_t b = 0; b < m.bounds.size(); ++b) {
      if (b > 0) os << ",";
      os << m.bounds[b];
    }
    os << "],\"buckets\":[";
    for (size_t b = 0; b < m.buckets.size(); ++b) {
      if (b > 0) os << ",";
      os << m.buckets[b];
    }
    os << "]}";
  }
  os << "}";
  // Per-query attribution rows (obs/context.h), keyed by fingerprint hex.
  // Omitted entirely when no query has run, so pre-attribution readers of
  // the JSONL format see identical records.
  const std::vector<AttributionTable::Row> queries =
      AttributionTable::Global().Snapshot();
  if (!queries.empty()) {
    os << ",\"queries\":{";
    first = true;
    for (const AttributionTable::Row& q : queries) {
      if (!first) os << ",";
      first = false;
      os << "\"" << FingerprintHex(q.fingerprint) << "\":{\"tag\":\"";
      JsonEscape(q.tag, escaped);
      os << "\",\"cpu_ns\":" << q.cpu_ns << ",\"tasks\":" << q.tasks
         << ",\"spans\":" << q.spans << ",\"rows_in\":" << q.rows_in
         << ",\"rows_out\":" << q.rows_out << ",\"vg_draws\":" << q.vg_draws
         << ",\"bundle_bytes\":" << q.bundle_bytes
         << ",\"cache_hits\":" << q.cache_hits << "}";
    }
    os << "}";
  }
  const ProcessMemory mem = SampleProcessMemory();
  if (mem.ok) {
    os << ",\"mem\":{\"rss_kb\":" << mem.rss_kb
       << ",\"peak_rss_kb\":" << mem.peak_rss_kb << "}";
  }
  os << "}\n";
  out_ << os.str();
  out_.flush();
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mde::obs
