#include "obs/report.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/stat.h"
#include "obs/trace.h"

namespace mde::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON DOM + recursive-descent parser. obs sits below every other
// library (and the container has no JSON dependency), so the report reader
// carries its own ~150-line parser: objects keep insertion order, numbers
// are doubles, and parse failure reports an offset for diagnostics.
// ---------------------------------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* Get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double NumOr(double def) const {
    return type == Type::kNumber ? num : def;
  }
  /// The number at `key`, 0 when absent or not a number.
  double Num(const std::string& key) const {
    const Json* v = Get(key);
    return v != nullptr ? v->NumOr(0.0) : 0.0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(Json* out, std::string* error) {
    ok_ = true;
    pos_ = 0;
    ParseValue(out);
    SkipSpace();
    if (ok_ && pos_ != s_.size()) Fail("trailing characters");
    if (!ok_ && error != nullptr) {
      *error = err_ + " at offset " + std::to_string(pos_);
    }
    return ok_;
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void Fail(const char* what) {
    if (ok_) {
      ok_ = false;
      err_ = what;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c, const char* what) {
    if (!Consume(c)) Fail(what);
  }

  void ParseValue(Json* out) {
    SkipSpace();
    if (pos_ >= s_.size()) {
      Fail("unexpected end of input");
      return;
    }
    const char c = s_[pos_];
    if (c == '{') {
      ParseObject(out);
    } else if (c == '[') {
      ParseArray(out);
    } else if (c == '"') {
      out->type = Json::Type::kString;
      ParseString(&out->str);
    } else if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      if (s_.compare(pos_, c == 't' ? 4 : 5, word) == 0) {
        out->type = Json::Type::kBool;
        out->b = c == 't';
        pos_ += c == 't' ? 4 : 5;
      } else {
        Fail("bad literal");
      }
    } else if (c == 'n') {
      if (s_.compare(pos_, 4, "null") == 0) {
        out->type = Json::Type::kNull;
        pos_ += 4;
      } else {
        Fail("bad literal");
      }
    } else {
      ParseNumber(out);
    }
  }

  void ParseObject(Json* out) {
    out->type = Json::Type::kObject;
    Expect('{', "expected '{'");
    if (Consume('}')) return;
    while (ok_) {
      std::string key;
      SkipSpace();
      ParseString(&key);
      Expect(':', "expected ':'");
      Json value;
      ParseValue(&value);
      out->obj.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return;
      Expect(',', "expected ',' or '}'");
    }
  }

  void ParseArray(Json* out) {
    out->type = Json::Type::kArray;
    Expect('[', "expected '['");
    if (Consume(']')) return;
    while (ok_) {
      Json value;
      ParseValue(&value);
      out->arr.push_back(std::move(value));
      if (Consume(']')) return;
      Expect(',', "expected ',' or ']'");
    }
  }

  void ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      Fail("expected string");
      return;
    }
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Escaped BMP code point; metric/span names are ASCII, so a
            // replacement character preserves well-formedness.
            pos_ = std::min(s_.size(), pos_ + 4);
            c = '?';
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) {
      Fail("unterminated string");
      return;
    }
    ++pos_;  // closing quote
  }

  void ParseNumber(Json* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("expected value");
      return;
    }
    out->type = Json::Type::kNumber;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
  }

  const std::string& s_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string err_;
};

// ---------------------------------------------------------------------------
// Report model.
// ---------------------------------------------------------------------------

/// One row of the per-query attribution table (obs/context.h), as sampled
/// into the JSONL "queries" object. Fields are cumulative, so the last
/// sample wins.
struct QueryAgg {
  std::string tag;
  QueryCounts counts;
};

/// A count read from a file: fractions truncate, and negative or
/// out-of-range numbers clamp into uint64_t rather than overflow.
uint64_t CountOf(double v) {
  if (!(v > 0.0)) return 0;
  return v < 18446744073709551616.0 ? static_cast<uint64_t>(v) : UINT64_MAX;
}

struct MetricsSeries {
  double t_first_ms = 0.0;
  double t_last_ms = 0.0;
  size_t samples = 0;
  std::map<std::string, double> counter_first;
  std::map<std::string, double> counter_last;
  std::map<std::string, double> gauges;  // final values
  std::map<std::string, MetricSnapshot> hists;  // value = sum
  std::map<std::string, QueryAgg> queries;  // final values, keyed by "0x.."
  bool have_mem = false;
  double rss_kb = 0.0;
  double peak_rss_kb = 0.0;
};

/// The trace's events in integer nanoseconds relative to the first event
/// (the file's microsecond times carry at most nanosecond digits), for the
/// tracer's own self-time reducer. Names point into `trace`.
std::vector<TraceEvent> ParseTraceEvents(const Json& trace) {
  std::vector<TraceEvent> events;
  if (const Json* list = trace.Get("traceEvents");
      list != nullptr && list->type == Json::Type::kArray) {
    events.reserve(list->arr.size());
    for (const Json& e : list->arr) {
      const Json* name = e.Get("name");
      if (name == nullptr || name->str.empty()) continue;
      TraceEvent ev;
      ev.name = name->str.c_str();
      ev.ts_ns = CountOf(std::round(e.Num("ts") * 1000.0));
      ev.dur_ns = CountOf(std::round(e.Num("dur") * 1000.0));
      ev.tid = static_cast<uint32_t>(std::min<uint64_t>(
          CountOf(e.Num("tid")), std::numeric_limits<uint32_t>::max()));
      events.push_back(ev);
    }
  }
  return events;
}

bool ParseMetricsJsonl(const std::string& jsonl, MetricsSeries* out,
                       std::string* error) {
  size_t line_no = 0;
  size_t begin = 0;
  while (begin < jsonl.size()) {
    size_t end = jsonl.find('\n', begin);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json rec;
    std::string perr;
    if (!JsonParser(line).Parse(&rec, &perr)) {
      if (error != nullptr) {
        *error = "metrics line " + std::to_string(line_no) + ": " + perr;
      }
      return false;
    }
    const double t_ms = rec.Num("t_ms");
    if (out->samples == 0) out->t_first_ms = t_ms;
    out->t_last_ms = t_ms;
    if (const Json* counters = rec.Get("counters")) {
      for (const auto& [name, c] : counters->obj) {
        const double v =
            c.Get("v") != nullptr ? c.Get("v")->NumOr(0.0) : c.NumOr(0.0);
        if (out->samples == 0) out->counter_first[name] = v;
        out->counter_first.try_emplace(name, 0.0);
        out->counter_last[name] = v;
      }
    }
    if (const Json* gauges = rec.Get("gauges")) {
      for (const auto& [name, g] : gauges->obj) {
        out->gauges[name] = g.NumOr(0.0);
      }
    }
    if (const Json* hists = rec.Get("hist")) {
      for (const auto& [name, h] : hists->obj) {
        MetricSnapshot hf;
        hf.count = CountOf(h.Num("count"));
        hf.value = h.Num("sum");
        if (const Json* bounds = h.Get("bounds")) {
          for (const Json& b : bounds->arr) hf.bounds.push_back(b.NumOr(0.0));
        }
        if (const Json* buckets = h.Get("buckets")) {
          for (const Json& b : buckets->arr) {
            hf.buckets.push_back(CountOf(b.NumOr(0.0)));
          }
        }
        out->hists[name] = std::move(hf);
      }
    }
    if (const Json* queries = rec.Get("queries")) {
      for (const auto& [fp, q] : queries->obj) {
        QueryAgg agg;
        if (const Json* t = q.Get("tag")) agg.tag = t->str;
        for (const QueryField& f : kQueryFields) {
          agg.counts.*f.count = CountOf(q.Num(f.name));
        }
        out->queries[fp] = std::move(agg);
      }
    }
    if (const Json* mem = rec.Get("mem")) {
      out->have_mem = true;
      if (const Json* v = mem->Get("rss_kb")) out->rss_kb = v->NumOr(0.0);
      if (const Json* v = mem->Get("peak_rss_kb")) {
        out->peak_rss_kb = v->NumOr(0.0);
      }
    }
    ++out->samples;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------------

/// Emits either a Markdown pipe table or aligned plain-text columns.
class TableWriter {
 public:
  TableWriter(std::vector<std::string> headers, bool markdown)
      : headers_(std::move(headers)), markdown_(markdown) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  bool empty() const { return rows_.empty(); }

  void Render(std::ostream& os) const {
    std::vector<size_t> width(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto line = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : kEmpty;
        if (markdown_) {
          os << "| " << cell << " ";
        } else {
          os << cell;
          for (size_t p = cell.size(); p < width[c] + 2; ++p) os << ' ';
        }
      }
      if (markdown_) os << "|";
      os << "\n";
    };
    line(headers_);
    if (markdown_) {
      for (size_t c = 0; c < headers_.size(); ++c) os << "|---";
      os << "|\n";
    } else {
      std::vector<std::string> rules;
      for (size_t c = 0; c < headers_.size(); ++c) {
        rules.push_back(std::string(width[c], '-'));
      }
      line(rules);
    }
    for (const auto& row : rows_) line(row);
  }

 private:
  static const std::string kEmpty;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  bool markdown_;
};

const std::string TableWriter::kEmpty;

std::string Fixed(double v, int digits = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string Compact(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << v;
  return os.str();
}

/// The members of `obj` at `keys` as table cells: strings as written, any
/// other value as a number, absent members empty.
std::vector<std::string> Cells(const Json& obj,
                               std::initializer_list<const char*> keys) {
  std::vector<std::string> cells;
  for (const char* key : keys) {
    const Json* v = obj.Get(key);
    cells.push_back(v == nullptr                     ? std::string()
                    : v->type == Json::Type::kString ? v->str
                                                     : Compact(v->num));
  }
  return cells;
}

/// Orders (name, value) pairs highest value first, ties by name.
constexpr auto kByValueThenName = [](const auto& a, const auto& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
};

void Heading(std::ostream& os, bool markdown, const std::string& title) {
  if (markdown) {
    os << "## " << title << "\n\n";
  } else {
    os << title << "\n" << std::string(title.size(), '-') << "\n";
  }
}

}  // namespace

HistogramQuantileResult HistogramQuantileEx(
    const std::vector<double>& bounds, const std::vector<uint64_t>& buckets,
    double q) {
  uint64_t total = 0;
  for (uint64_t b : buckets) total += b;
  if (total == 0) return {0.0, false};
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double next = cum + static_cast<double>(buckets[b]);
    if (next >= target || b + 1 == buckets.size()) {
      if (b >= bounds.size()) {
        // +inf bucket: no finite upper edge to interpolate toward. The
        // value is a lower bound on the true quantile, not an estimate —
        // flag it so renderers don't silently underreport the tail.
        return {bounds.empty() ? 0.0 : bounds.back(), true};
      }
      const double lo = b == 0 ? std::min(0.0, bounds[0]) : bounds[b - 1];
      const double hi = bounds[b];
      if (buckets[b] == 0) return {hi, false};
      const double frac =
          (target - cum) / static_cast<double>(buckets[b]);
      return {lo + std::clamp(frac, 0.0, 1.0) * (hi - lo), false};
    }
    cum = next;
  }
  return {bounds.empty() ? 0.0 : bounds.back(), false};
}

bool RenderRunReport(const std::string& trace_json,
                     const std::string& metrics_jsonl,
                     const RunReportOptions& options, std::string* out,
                     std::string* error) {
  Json trace;
  std::vector<std::pair<std::string, SpanTotals>> spans;
  if (!trace_json.empty()) {
    std::string perr;
    if (!JsonParser(trace_json).Parse(&trace, &perr)) {
      if (error != nullptr) *error = "trace: " + perr;
      return false;
    }
    spans = ReduceSpanSelfTime(ParseTraceEvents(trace));
  }
  MetricsSeries series;
  if (!metrics_jsonl.empty() &&
      !ParseMetricsJsonl(metrics_jsonl, &series, error)) {
    return false;
  }

  const bool md = options.markdown;
  std::ostringstream os;
  if (md) {
    os << "# mde run report\n\n";
  } else {
    os << "=== mde run report ===\n\n";
  }

  // --- Run summary -------------------------------------------------------
  Heading(os, md, "Run summary");
  {
    TableWriter t({"what", "value"}, md);
    if (!spans.empty()) {
      uint64_t calls = 0;
      int64_t total_self_ns = 0;
      for (const auto& [name, a] : spans) {
        calls += a.calls;
        total_self_ns += a.self_ns;
      }
      t.AddRow({"trace spans", std::to_string(calls)});
      t.AddRow({"span self time", Fixed(total_self_ns / 1e6) + " ms"});
    }
    if (series.samples > 0) {
      t.AddRow({"metrics samples", std::to_string(series.samples)});
      t.AddRow({"metrics window",
                Fixed(series.t_last_ms - series.t_first_ms) + " ms"});
    }
    if (series.have_mem) {
      t.AddRow({"final RSS", Fixed(series.rss_kb / 1024.0, 1) + " MiB"});
      t.AddRow({"peak RSS", Fixed(series.peak_rss_kb / 1024.0, 1) + " MiB"});
    }
    if (t.empty()) t.AddRow({"(no inputs)", ""});
    t.Render(os);
    os << "\n";
  }

  // --- Top self-time spans ----------------------------------------------
  if (!spans.empty()) {
    Heading(os, md, "Top self-time spans");
    double total_self = 0.0;
    for (const auto& [name, a] : spans) {
      total_self += static_cast<double>(std::max<int64_t>(a.self_ns, 0));
    }
    TableWriter t({"span", "calls", "incl ms", "self ms", "self %"}, md);
    for (size_t i = 0; i < spans.size() && i < options.top_spans; ++i) {
      const auto& [name, a] = spans[i];
      const double self = static_cast<double>(std::max<int64_t>(a.self_ns, 0));
      const double pct = total_self > 0.0 ? 100.0 * self / total_self : 0.0;
      t.AddRow({name, std::to_string(a.calls), Fixed(a.incl_ns / 1e6),
                Fixed(a.self_ns / 1e6), Fixed(pct, 1)});
    }
    t.Render(os);
    if (spans.size() > options.top_spans) {
      os << "(" << spans.size() - options.top_spans << " more spans)\n";
    }
    os << "\n";
  }

  // --- Counters ----------------------------------------------------------
  if (!series.counter_last.empty()) {
    Heading(os, md, "Counters");
    const double window_s =
        (series.t_last_ms - series.t_first_ms) / 1000.0;
    std::vector<std::pair<std::string, double>> rows(
        series.counter_last.begin(), series.counter_last.end());
    std::sort(rows.begin(), rows.end(), kByValueThenName);
    TableWriter t({"counter", "total", "rate/s"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_counters; ++i) {
      const auto& [name, total] = rows[i];
      const double delta = total - series.counter_first[name];
      t.AddRow({name, Compact(total),
                window_s > 0.0 ? Fixed(delta / window_s, 1) : "-"});
    }
    t.Render(os);
    if (rows.size() > options.top_counters) {
      os << "(" << rows.size() - options.top_counters << " more counters)\n";
    }
    os << "\n";
  }

  // --- Per-query attribution --------------------------------------------
  if (!series.queries.empty()) {
    Heading(os, md, "Per-query attribution");
    std::vector<std::pair<std::string, QueryAgg>> rows(series.queries.begin(),
                                                       series.queries.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.counts.cpu_ns != b.second.counts.cpu_ns) {
        return a.second.counts.cpu_ns > b.second.counts.cpu_ns;
      }
      return a.first < b.first;
    });
    // cpu in ms and bundle bytes in MiB; spans are left out of this table.
    std::vector<std::string> headers = {"query", "tag"};
    for (const QueryField& f : kQueryFields) {
      if (f.count == &QueryCounts::spans) continue;
      std::string h = f.name;
      std::replace(h.begin(), h.end(), '_', ' ');
      if (f.count == &QueryCounts::cpu_ns) h = "cpu ms";
      if (f.count == &QueryCounts::bundle_bytes) h = "bundle MiB";
      headers.push_back(std::move(h));
    }
    TableWriter t(std::move(headers), md);
    for (const auto& [fp, q] : rows) {
      std::vector<std::string> row = {fp, q.tag};
      for (const QueryField& f : kQueryFields) {
        if (f.count == &QueryCounts::spans) continue;
        const double v = static_cast<double>(q.counts.*f.count);
        if (f.count == &QueryCounts::cpu_ns) {
          row.push_back(Fixed(v / 1e6));
        } else if (f.count == &QueryCounts::bundle_bytes) {
          row.push_back(Fixed(v / (1024.0 * 1024.0), 2));
        } else {
          row.push_back(Compact(v));
        }
      }
      t.AddRow(std::move(row));
    }
    t.Render(os);
    os << "\n";
  }

  // --- Histogram quantiles ----------------------------------------------
  if (!series.hists.empty()) {
    Heading(os, md, "Histogram quantiles (bucket interpolation)");
    TableWriter t({"histogram", "count", "mean", "p50", "p90", "p99"}, md);
    // Overflow-bucket quantiles are lower bounds, not estimates: render
    // them as ">= bound" rather than underreporting the tail.
    const auto quantile_cell = [](const MetricSnapshot& h, double q) {
      const HistogramQuantileResult r =
          HistogramQuantileEx(h.bounds, h.buckets, q);
      return r.overflow ? ">= " + Compact(r.value) : Compact(r.value);
    };
    for (const auto& [name, h] : series.hists) {
      const double mean =
          h.count > 0 ? h.value / static_cast<double>(h.count) : 0.0;
      t.AddRow({name, std::to_string(h.count), Compact(mean),
                quantile_cell(h, 0.50), quantile_cell(h, 0.90),
                quantile_cell(h, 0.99)});
    }
    t.Render(os);
    os << "\n";
  }

  // --- Memory ------------------------------------------------------------
  {
    TableWriter t({"pool / process", "bytes"}, md);
    for (const auto& [name, v] : series.gauges) {
      static const std::string kLive = ".live_bytes";
      if (name.rfind("obs.mem.", 0) == 0 && name.size() > kLive.size() &&
          name.compare(name.size() - kLive.size(), kLive.size(), kLive) ==
              0) {
        t.AddRow({name, Compact(v)});
      }
    }
    if (series.have_mem) {
      t.AddRow({"process RSS (kB)", Compact(series.rss_kb)});
      t.AddRow({"process peak RSS (kB)", Compact(series.peak_rss_kb)});
    }
    if (!t.empty()) {
      Heading(os, md, "Memory");
      t.Render(os);
      os << "\n";
    }
  }

  // --- Health verdicts ---------------------------------------------------
  {
    TableWriter t({"monitor", "verdict / value"}, md);
    for (const auto& [name, v] : series.gauges) {
      if (name.rfind("obs.health.", 0) == 0) {
        const auto verdict = static_cast<ConvergenceMonitor::Verdict>(
            static_cast<int>(v));
        t.AddRow({name.substr(11),
                  ConvergenceMonitor::VerdictName(verdict)});
      }
    }
    // Key estimator gauges the monitors publish alongside verdicts.
    for (const char* key :
         {"smc.ess", "mcdb.ci_halfwidth", "simsql.mc.ci_halfwidth",
          "simsql.mc.q50", "simsql.mc.q95", "dsgd.epoch_loss",
          "dsgd.residual"}) {
      auto it = series.gauges.find(key);
      if (it != series.gauges.end()) {
        t.AddRow({key, Compact(it->second)});
      }
    }
    if (!t.empty()) {
      Heading(os, md, "Statistical health (final)");
      t.Render(os);
      os << "\n";
    }
  }

  *out = os.str();
  return true;
}

bool RenderFlightReport(const std::string& flight_json,
                        const RunReportOptions& options, std::string* out,
                        std::string* error) {
  Json doc;
  std::string perr;
  if (!JsonParser(flight_json).Parse(&doc, &perr)) {
    if (error != nullptr) *error = "flight: " + perr;
    return false;
  }
  const Json* flight = doc.Get("flight");
  if (flight == nullptr || flight->type != Json::Type::kObject) {
    if (error != nullptr) *error = "flight: missing \"flight\" object";
    return false;
  }

  const bool md = options.markdown;
  std::ostringstream os;
  if (md) {
    os << "# mde flight recorder\n\n";
  } else {
    os << "=== mde flight recorder ===\n\n";
  }

  // --- Dump header -------------------------------------------------------
  Heading(os, md, "Dump");
  {
    TableWriter t({"what", "value"}, md);
    if (const Json* r = flight->Get("reason")) t.AddRow({"reason", r->str});
    if (const Json* v = flight->Get("version")) {
      t.AddRow({"version", Compact(v->NumOr(0.0))});
    }
    if (const Json* ts = flight->Get("ts_ns")) {
      t.AddRow({"ts_ns", Compact(ts->NumOr(0.0))});
    }
    if (t.empty()) t.AddRow({"(empty header)", ""});
    t.Render(os);
    os << "\n";
  }

  // --- Live query contexts ----------------------------------------------
  if (const Json* contexts = flight->Get("contexts");
      contexts != nullptr && !contexts->arr.empty()) {
    Heading(os, md, "Live query contexts");
    TableWriter t({"thread", "trace_id", "query", "tag"}, md);
    for (const Json& c : contexts->arr) {
      t.AddRow(Cells(c, {"thread", "trace_id", "fingerprint", "tag"}));
    }
    t.Render(os);
    os << "\n";
  }

  // --- Recent spans ------------------------------------------------------
  if (const Json* spans = flight->Get("spans");
      spans != nullptr && !spans->arr.empty()) {
    Heading(os, md, "Recent spans (newest first)");
    std::vector<const Json*> rows;
    for (const Json& sp : spans->arr) rows.push_back(&sp);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Json* a, const Json* b) {
                       return a->Num("ts_ns") > b->Num("ts_ns");
                     });
    TableWriter t({"thread", "span", "ts_ns", "trace", "span id", "parent"},
                  md);
    const size_t limit = std::max<size_t>(options.top_spans, 1) * 4;
    for (size_t i = 0; i < rows.size() && i < limit; ++i) {
      t.AddRow(Cells(*rows[i], {"thread", "name", "ts_ns", "trace_id",
                                "span_id", "parent_span_id"}));
    }
    t.Render(os);
    if (rows.size() > limit) {
      os << "(" << rows.size() - limit << " older spans)\n";
    }
    os << "\n";
  }

  // --- Counter/gauge snapshot (absent in signal-path dumps) --------------
  if (const Json* counters = flight->Get("counters");
      counters != nullptr && !counters->obj.empty()) {
    Heading(os, md, "Counters at dump");
    std::vector<std::pair<std::string, double>> rows;
    for (const auto& [name, v] : counters->obj) {
      rows.emplace_back(name, v.NumOr(0.0));
    }
    std::sort(rows.begin(), rows.end(), kByValueThenName);
    TableWriter t({"counter", "total"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_counters; ++i) {
      t.AddRow({rows[i].first, Compact(rows[i].second)});
    }
    t.Render(os);
    if (rows.size() > options.top_counters) {
      os << "(" << rows.size() - options.top_counters << " more counters)\n";
    }
    os << "\n";
  }
  if (const Json* gauges = flight->Get("gauges");
      gauges != nullptr && !gauges->obj.empty()) {
    Heading(os, md, "Gauges at dump");
    TableWriter t({"gauge", "value"}, md);
    for (const auto& [name, v] : gauges->obj) {
      t.AddRow({name, Compact(v.NumOr(0.0))});
    }
    t.Render(os);
    os << "\n";
  }

  *out = os.str();
  return true;
}

bool RenderProfileReport(const std::string& profile_text,
                         const std::string& metrics_jsonl,
                         const RunReportOptions& options, std::string* out,
                         std::string* error) {
  const bool md = options.markdown;

  // Parse the folded format: "# mde_profile hz=H samples=N window_s=S"
  // then one "frame;frame;...;frame count" line per distinct stack.
  int hz = 0;
  double window_s = 0.0;
  bool saw_header = false;
  struct Stack {
    std::vector<std::string> frames;  // root first
    uint64_t count = 0;
  };
  std::vector<Stack> stacks;
  size_t line_no = 0;
  size_t begin = 0;
  while (begin < profile_text.size()) {
    size_t end = profile_text.find('\n', begin);
    if (end == std::string::npos) end = profile_text.size();
    std::string line = profile_text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    if (line[0] == '#') {
      if (line.rfind("# mde_profile ", 0) == 0) {
        saw_header = true;
        std::istringstream kv(line.substr(14));
        std::string token;
        while (kv >> token) {
          if (token.rfind("hz=", 0) == 0) {
            hz = std::atoi(token.c_str() + 3);
          } else if (token.rfind("window_s=", 0) == 0) {
            window_s = std::atof(token.c_str() + 9);
          }
        }
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      if (error != nullptr) {
        *error = "profile line " + std::to_string(line_no) +
                 ": expected 'stack count'";
      }
      return false;
    }
    char* num_end = nullptr;
    const uint64_t count =
        std::strtoull(line.c_str() + sp + 1, &num_end, 10);
    if (num_end == nullptr || *num_end != '\0') {
      if (error != nullptr) {
        *error = "profile line " + std::to_string(line_no) +
                 ": trailing count is not a number";
      }
      return false;
    }
    Stack s;
    s.count = count;
    size_t fb = 0;
    const std::string stack_str = line.substr(0, sp);
    while (fb <= stack_str.size()) {
      size_t fe = stack_str.find(';', fb);
      if (fe == std::string::npos) fe = stack_str.size();
      if (fe > fb) s.frames.push_back(stack_str.substr(fb, fe - fb));
      fb = fe + 1;
    }
    if (!s.frames.empty()) stacks.push_back(std::move(s));
  }
  if (!saw_header && stacks.empty()) {
    if (error != nullptr) *error = "not a folded profile (no header, no stacks)";
    return false;
  }

  uint64_t total = 0;
  for (const Stack& s : stacks) total += s.count;

  // Leaf-frame (self) and anywhere-on-stack (inclusive) sample counts per
  // function; the synthetic "query:..." roots stay out of this table.
  struct FuncAgg {
    uint64_t self = 0;
    uint64_t incl = 0;
  };
  std::map<std::string, FuncAgg> funcs;
  std::map<std::string, uint64_t> query_counts;
  for (const Stack& s : stacks) {
    size_t first = 0;
    if (s.frames[0].rfind("query:", 0) == 0) {
      query_counts[s.frames[0].substr(6)] += s.count;
      first = 1;
    }
    if (first >= s.frames.size()) continue;
    std::set<std::string> seen;
    for (size_t f = first; f < s.frames.size(); ++f) {
      if (seen.insert(s.frames[f]).second) funcs[s.frames[f]].incl += s.count;
    }
    funcs[s.frames.back()].self += s.count;
  }

  std::ostringstream os;
  Heading(os, md, "CPU profile");
  {
    TableWriter t({"what", "value"}, md);
    t.AddRow({"samples", std::to_string(total)});
    if (hz > 0) t.AddRow({"rate (hz)", std::to_string(hz)});
    if (window_s > 0.0) t.AddRow({"window (s)", Fixed(window_s)});
    if (hz > 0) {
      t.AddRow({"sampled cpu (s)",
                Fixed(static_cast<double>(total) / static_cast<double>(hz))});
    }
    t.Render(os);
    os << "\n";
  }

  if (!funcs.empty()) {
    Heading(os, md, "Top functions (self samples)");
    std::vector<std::pair<std::string, FuncAgg>> rows(funcs.begin(),
                                                      funcs.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second.self != b.second.self) return a.second.self > b.second.self;
      return a.first < b.first;
    });
    TableWriter t({"function", "self", "self %", "incl"}, md);
    for (size_t i = 0; i < rows.size() && i < options.top_spans; ++i) {
      const double pct =
          total > 0
              ? 100.0 * static_cast<double>(rows[i].second.self) / total
              : 0.0;
      t.AddRow({rows[i].first, std::to_string(rows[i].second.self),
                Fixed(pct, 1), std::to_string(rows[i].second.incl)});
    }
    t.Render(os);
    if (rows.size() > options.top_spans) {
      os << "(" << rows.size() - options.top_spans << " more functions)\n";
    }
    os << "\n";
  }

  if (!query_counts.empty()) {
    // Reconciliation column: the attribution table's own cpu-ns totals from
    // the Sampler JSONL, when provided. Sample-estimated cpu vs attributed
    // cpu should agree within sampling error (the 10% acceptance gate).
    MetricsSeries series;
    if (!metrics_jsonl.empty() &&
        !ParseMetricsJsonl(metrics_jsonl, &series, error)) {
      return false;
    }
    Heading(os, md, "Per-query samples");
    std::vector<std::pair<std::string, uint64_t>> rows(query_counts.begin(),
                                                       query_counts.end());
    std::sort(rows.begin(), rows.end(), kByValueThenName);
    const bool have_attr = !series.queries.empty();
    std::vector<std::string> headers = {"query", "samples", "est cpu s"};
    if (have_attr) {
      headers.push_back("attr cpu s");
      headers.push_back("est/attr");
    }
    TableWriter t(std::move(headers), md);
    for (const auto& [query, count] : rows) {
      std::vector<std::string> row;
      row.push_back(query == "-" ? "(no query)" : query);
      row.push_back(std::to_string(count));
      const double est_s =
          hz > 0 ? static_cast<double>(count) / static_cast<double>(hz)
                 : 0.0;
      row.push_back(hz > 0 ? Fixed(est_s) : "?");
      if (have_attr) {
        auto it = series.queries.find(query);
        if (it != series.queries.end() && it->second.counts.cpu_ns > 0) {
          const double attr_s =
              static_cast<double>(it->second.counts.cpu_ns) * 1e-9;
          row.push_back(Fixed(attr_s));
          row.push_back(hz > 0 ? Fixed(est_s / attr_s, 2) : "?");
        } else {
          row.push_back("-");
          row.push_back("-");
        }
      }
      t.AddRow(std::move(row));
    }
    t.Render(os);
    os << "\n";
  }

  *out = os.str();
  return true;
}

}  // namespace mde::obs
