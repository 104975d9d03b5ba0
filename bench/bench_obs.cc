/// Observability-layer microbenchmarks: the per-event cost of the obs
/// primitives that ride inside every engine hot path, plus the end-to-end
/// price of EXPLAIN ANALYZE profiling. These are diagnostics, not the
/// engine's benchmark: perfbench/README.md maps each of them to the
/// perfbench metric that replaced it or records why it was retired.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/stat.h"
#include "obs/trace.h"
#include "table/plan.h"
#include "util/thread_pool.h"

namespace {

using namespace mde;  // NOLINT

void PrintPreamble() {
  std::printf("=== obs: metrics/trace primitive costs ===\n");
  std::printf("counters and histograms are thread-sharded relaxed atomics; "
              "disabled spans are one relaxed load + branch.\n\n");
}

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter* c = obs::Registry::Global().counter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_CounterMacro(benchmark::State& state) {
  // The engine's spelling: function-local static pointer + Add.
  for (auto _ : state) {
    MDE_OBS_COUNT("bench.counter_macro", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterMacro);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram* h = obs::Registry::Global().histogram(
      "bench.histogram", obs::ExponentialBounds());
  double v = 0.0;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 1e6 ? v + 17.0 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanDisabled(benchmark::State& state) {
  obs::Tracer::Global().Disable();
  for (auto _ : state) {
    MDE_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer::Global().Enable();
  for (auto _ : state) {
    MDE_TRACE_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  obs::Tracer::Global().Disable();
  obs::Tracer::Global().Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

void BM_P2Observe(benchmark::State& state) {
  obs::P2Quantile q(0.95);
  double v = 0.0;
  for (auto _ : state) {
    q.Add(v);
    v = v < 1e6 ? v + 17.0 : 0.0;
  }
  benchmark::DoNotOptimize(q);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_P2Observe);

/// Full scrape cost: Registry::Snapshot + derived gauges + text rendering,
/// on whatever metrics this binary has registered so far. This is what one
/// Sampler tick or Prometheus pull pays.
void BM_PrometheusText(benchmark::State& state) {
  for (auto _ : state) {
    std::string text = obs::PrometheusText();
    benchmark::DoNotOptimize(text);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrometheusText);

/// One query-scope open/close at an engine entry point: fresh trace id,
/// attribution-row acquire (a map hit after the first iteration), context
/// install + restore, and the cpu-ns fold on close.
void BM_QueryScope(benchmark::State& state) {
  for (auto _ : state) {
    MDE_OBS_QUERY_SCOPE("bench.scope", 0x9e3779b97f4a7c15ull);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryScope);

/// Scope opened under an already-active query: adopts the outer context
/// instead of installing a new one — what nested engine calls pay.
void BM_QueryScopeNested(benchmark::State& state) {
  MDE_OBS_QUERY_SCOPE("bench.scope_outer", 0x517cc1b727220a95ull);
  for (auto _ : state) {
    MDE_OBS_QUERY_SCOPE("bench.scope", 0x9e3779b97f4a7c15ull);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryScopeNested);

/// Attribution add with an active query: thread-local context read + one
/// relaxed fetch_add on the row field.
void BM_AttrAddActive(benchmark::State& state) {
  MDE_OBS_QUERY_SCOPE("bench.attr", 0x2545f4914f6cdd1dull);
  for (auto _ : state) {
    MDE_OBS_ATTR_ADD(rows_in, 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttrAddActive);

/// Attribution add with no active query: the thread-local load + branch
/// every unattributed hot path pays.
void BM_AttrAddInactive(benchmark::State& state) {
  for (auto _ : state) {
    MDE_OBS_ATTR_ADD(rows_in, 1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttrAddInactive);

/// Context capture/restore across the work-stealing pool: 64 empty tasks
/// per iteration under an active query. Against BM_SubmitNoContext, the
/// per-task delta prices the ContextGuard each (possibly stolen) task runs.
void BM_SubmitWithContext(benchmark::State& state) {
  static ThreadPool pool(2);
  MDE_OBS_QUERY_SCOPE("bench.submit", 0xd1b54a32d192ed03ull);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) pool.Submit([] {});
    pool.WaitAll();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SubmitWithContext);

void BM_SubmitNoContext(benchmark::State& state) {
  static ThreadPool pool(2);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) pool.Submit([] {});
    pool.WaitAll();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SubmitNoContext);

table::Table MakeTable(size_t n) {
  table::Table t{table::Schema(
      {{"id", table::DataType::kInt64}, {"x", table::DataType::kDouble}})};
  for (size_t i = 0; i < n; ++i) {
    t.Append({table::Value(static_cast<int64_t>(i)),
              table::Value(static_cast<double>(i % 97))});
  }
  return t;
}

/// ExecutePlan without profiling vs with the EXPLAIN ANALYZE stats sink —
/// the per-node steady_clock reads are the only delta.
void BM_PlanNoProfile(benchmark::State& state) {
  static table::Table t = MakeTable(100000);
  table::PlanPtr plan = table::PlanNode::Filter(
      table::PlanNode::Scan(&t, "t"),
      {{"x", table::CmpOp::kGt, table::Value(50.0)}});
  for (auto _ : state) {
    auto r = table::ExecutePlan(plan, nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PlanNoProfile);

void BM_PlanWithProfile(benchmark::State& state) {
  static table::Table t = MakeTable(100000);
  table::PlanPtr plan = table::PlanNode::Filter(
      table::PlanNode::Scan(&t, "t"),
      {{"x", table::CmpOp::kGt, table::Value(50.0)}});
  table::ExecutionStats stats;
  for (auto _ : state) {
    auto r = table::ExecutePlan(plan, &stats);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PlanWithProfile);

/// The continuous profiler's tax, same-binary: a fixed CPU-bound kernel
/// (the plan executor over 100k rows) with the profiler stopped (/0) vs
/// running at the default 97 Hz (/1). At 97 Hz a busy thread takes ~97
/// SIGPROF deliveries per CPU-second; each is a backtrace + relaxed ring
/// stores, so the expected tax is well under the 3% overhead budget.
void BM_ProfilerOverhead(benchmark::State& state) {
  static table::Table t = MakeTable(100000);
  table::PlanPtr plan = table::PlanNode::Filter(
      table::PlanNode::Scan(&t, "t"),
      {{"x", table::CmpOp::kGt, table::Value(50.0)}});
  obs::Profiler& prof = obs::Profiler::Global();
  const bool on = state.range(0) != 0;
  if (on && !prof.Start(obs::Profiler::kDefaultHz)) {
    state.SkipWithError("profiler already running");
    return;
  }
  for (auto _ : state) {
    auto r = table::ExecutePlan(plan, nullptr);
    benchmark::DoNotOptimize(r);
  }
  if (on) prof.Stop();
  state.counters["prof_hz"] = on ? obs::Profiler::kDefaultHz : 0;
}
BENCHMARK(BM_ProfilerOverhead)->Arg(0)->Arg(1);

}  // namespace

MDE_BENCHMARK_MAIN(PrintPreamble)
