#ifndef MDE_OBS_REPORT_H_
#define MDE_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

/// Run-report rendering: merges the two artifacts a run leaves behind — a
/// Chrome trace-event JSON (obs/trace.h, --mde_trace_out) and a metrics
/// JSONL time series (obs/export.h Sampler, --mde_metrics_jsonl) — into one
/// plain-text/Markdown report that grades the run: where the time went (top
/// self-time spans), what the engine did (counter totals and rates),
/// latency shape (histogram p50/p90/p99 by cumulative-bucket
/// interpolation), memory (live pool bytes, peak RSS), and the final
/// statistical-health verdicts (obs.health.* gauges from the monitors in
/// obs/stat.h). Consumed by tools/mde_report and by bench tooling.
///
/// obs sits below util, so this API reports failure via a bool + error
/// string instead of Status. Parsing is tolerant: either input may be
/// empty/absent and its sections are skipped.
namespace mde::obs {

struct RunReportOptions {
  /// Markdown headers/tables (default) vs plain-text underlines.
  bool markdown = true;
  /// Rows kept in the span and counter tables.
  size_t top_spans = 12;
  size_t top_counters = 24;
};

/// Renders the report from raw file contents. `trace_json` is a Chrome
/// trace-event document ({"traceEvents":[...]}); `metrics_jsonl` is the
/// Sampler's line format. Either may be empty. Returns false and sets
/// `*error` when a non-empty input fails to parse.
bool RenderRunReport(const std::string& trace_json,
                     const std::string& metrics_jsonl,
                     const RunReportOptions& options, std::string* out,
                     std::string* error);

/// Renders a crash flight-recorder dump (obs/flight.h DumpToFile or the
/// signal-path variant) as a report: dump reason, the query contexts that
/// were live on each thread, the most recent spans per thread (newest
/// first), and — when present — the counter/gauge snapshot. The signal-path
/// dump omits counters/gauges (they sit behind a mutex the handler cannot
/// take), so both are optional. Returns false and sets `*error` when the
/// document fails to parse or is not a flight dump.
bool RenderFlightReport(const std::string& flight_json,
                        const RunReportOptions& options, std::string* out,
                        std::string* error);

/// Renders a CPU profile captured from /profilez (obs/profiler.h Folded
/// format: one "# mde_profile hz=H samples=N window_s=S" header comment,
/// then "frame;frame;...;frame count" lines, root first) as a report: the
/// top functions by SELF samples (leaf-frame attribution) with inclusive
/// counts alongside, and — when the stacks carry "query:0x<fp>" synthetic
/// roots — per-query sample counts with estimated CPU seconds
/// (samples / hz). When `metrics_jsonl` (the Sampler's line format) is
/// non-empty, each query row is reconciled against the final
/// mde_query_cpu_ns from the JSONL's "queries" object: the report prints
/// both and their ratio. Returns false and sets `*error` when the profile
/// text fails to parse.
bool RenderProfileReport(const std::string& profile_text,
                         const std::string& metrics_jsonl,
                         const RunReportOptions& options, std::string* out,
                         std::string* error);

/// Interpolated quantile from a fixed-bucket histogram (per-bucket counts,
/// `bounds`-aligned with one trailing +inf bucket), the same linear
/// interpolation Prometheus' histogram_quantile applies to cumulative
/// buckets. When the quantile lands in the +inf overflow bucket there is no
/// upper edge to interpolate toward: `value` is the last finite bound and
/// `overflow` is set, so renderers can report ">= bound" instead of
/// silently underreporting the tail.
struct HistogramQuantileResult {
  double value = 0.0;
  bool overflow = false;
};
HistogramQuantileResult HistogramQuantileEx(const std::vector<double>& bounds,
                                            const std::vector<uint64_t>& buckets,
                                            double q);

}  // namespace mde::obs

#endif  // MDE_OBS_REPORT_H_
