// Tests of the benchmark's own arithmetic: percentile selection under the
// sample-count rule, span self time (nested, and children that ran on
// other threads), and the check that layers add up to the whole.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(NearestRank(v, 0.5), 50.0);
  EXPECT_EQ(NearestRank(v, 0.99), 99.0);
  EXPECT_EQ(NearestRank(v, 1.0), 100.0);
  EXPECT_EQ(NearestRank(v, 0.0), 1.0);
  EXPECT_EQ(NearestRank({7.0}, 0.99), 7.0);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(Percentile, HighestSupportedFollowsTheSampleCountRule) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(200), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.90);
  EXPECT_EQ(HighestSupportedPercentile(40), 0.75);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.0);
}

TEST(Percentile, SummaryFallsBackToASupportedTail) {
  std::vector<double> v = Iota(500);
  const Summary s = Summarize(&v, 0.99);
  EXPECT_EQ(s.n, 500u);
  EXPECT_EQ(s.p50, 250.0);
  EXPECT_EQ(s.tail_p, 0.95);  // p99 of 500 has only 5 samples beyond it
  EXPECT_EQ(s.tail, 475.0);
  EXPECT_GE(s.tail_beyond, kMinBeyond);

  std::vector<double> big = Iota(2000);
  const Summary b = Summarize(&big, 0.99);
  EXPECT_EQ(b.tail_p, 0.99);
  EXPECT_EQ(b.tail, 1980.0);
  EXPECT_EQ(b.tail_beyond, 20u);
}

TEST(Percentile, SummaryOfTooFewSamplesHasNoTail) {
  std::vector<double> v = {3.0, 1.0, 2.0};
  const Summary s = Summarize(&v, 0.99);
  EXPECT_EQ(s.p50, 2.0);
  EXPECT_EQ(s.tail_p, 0.0);
}

TEST(SampleBuffer, KeepsAnEvenlySpacedSubsample) {
  SampleBuffer buf(4);
  for (int i = 0; i < 16; ++i) buf.Add(i);
  EXPECT_EQ(buf.offered(), 16u);
  // Stride grew 1 -> 2 -> 4 -> 8... kept values are multiples of the
  // final stride, starting at 0.
  const std::vector<double>& k = buf.kept();
  ASSERT_FALSE(k.empty());
  ASSERT_LE(k.size(), 4u);
  const double stride = k.size() > 1 ? k[1] - k[0] : 1.0;
  for (size_t i = 0; i < k.size(); ++i) {
    EXPECT_EQ(k[i], stride * static_cast<double>(i));
  }
  EXPECT_EQ(k.size(), static_cast<size_t>(16 / stride));
}

TEST(SampleBuffer, KeepsEverythingBelowCapacity) {
  SampleBuffer buf(100);
  for (int i = 0; i < 50; ++i) buf.Add(i);
  EXPECT_EQ(buf.kept().size(), 50u);
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t start, uint64_t end,
              Layer layer, uint32_t thread = 0) {
  Span s;
  s.name = "s";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.layer = layer;
  s.thread = thread;
  return s;
}

TEST(SelfTime, NestedSpans) {
  // request [0,100] > eval [10,40] > inner [20,30]
  const std::vector<Span> spans = {
      MakeSpan(3, 2, 20, 30, Layer::kTable),
      MakeSpan(2, 1, 10, 40, Layer::kMcdb),
      MakeSpan(1, 0, 0, 100, Layer::kServe),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 10u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 70u);
  const auto totals = LayerSelfTotals(spans, self);
  EXPECT_EQ(totals[static_cast<size_t>(Layer::kServe)], 70u);
  EXPECT_EQ(totals[static_cast<size_t>(Layer::kMcdb)], 20u);
  EXPECT_EQ(totals[static_cast<size_t>(Layer::kTable)], 10u);
  EXPECT_TRUE(LayersAddUp(totals, 100, 0.0));
}

TEST(SelfTime, SequentialChildrenOnOneThread) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, Layer::kServe),
      MakeSpan(2, 1, 10, 20, Layer::kMcdb),
      MakeSpan(3, 1, 30, 45, Layer::kMcdb),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 75u);
}

TEST(SelfTime, ChildrenStolenByOtherThreadsCountOnce) {
  // The parent waits on thread 0 while two workers run its children; their
  // intervals overlap, so the parent's covered time is their union.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, Layer::kTable, 0),
      MakeSpan(2, 1, 10, 60, Layer::kMcdb, 1),
      MakeSpan(3, 1, 40, 90, Layer::kMcdb, 2),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 20u);  // 100 - |[10,90]|
  EXPECT_EQ(self[1], 50u);
  EXPECT_EQ(self[2], 50u);
  const auto totals = LayerSelfTotals(spans, self);
  // Thread time, not wall time: the children add their own threads' time.
  EXPECT_EQ(totals[static_cast<size_t>(Layer::kTable)] +
                totals[static_cast<size_t>(Layer::kMcdb)],
            120u);
}

TEST(SelfTime, ChildOutlivingItsParentIsClipped) {
  // A stolen child may still run after the parent stopped waiting for it.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 50, Layer::kServe, 0),
      MakeSpan(2, 1, 40, 80, Layer::kMcdb, 1),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 40u);
}

TEST(SelfTime, ChildWithUnknownParentIsARoot) {
  const std::vector<Span> spans = {
      MakeSpan(5, 99, 0, 30, Layer::kSimsql),
      MakeSpan(6, 0, 40, 50, Layer::kServe),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 30u);
  EXPECT_EQ(self[1], 10u);
}

TEST(LayerSum, TimeOutsideEverySpanFailsTheCheck) {
  // A traced window of 100 ns on one thread. Two operations fill [0,40]
  // and [45,95]; the 10 ns between and after them are in no span.
  const std::vector<Span> gappy = {
      MakeSpan(1, 0, 0, 40, Layer::kServe),
      MakeSpan(2, 1, 10, 30, Layer::kMcdb),
      MakeSpan(3, 0, 45, 95, Layer::kServe),
  };
  const auto gappy_totals = LayerSelfTotals(gappy, SelfTimes(gappy));
  EXPECT_FALSE(LayersAddUp(gappy_totals, 100, 0.05));  // 90%

  // The same run with the benchmark's own turn spans around each
  // operation covers the window up to the 2 ns it takes to loop.
  std::vector<Span> covered = gappy;
  covered.push_back(MakeSpan(4, 0, 0, 44, Layer::kBench));
  covered.push_back(MakeSpan(5, 0, 44, 98, Layer::kBench));
  covered[0].parent = 4;
  covered[2].parent = 5;
  const auto totals = LayerSelfTotals(covered, SelfTimes(covered));
  EXPECT_EQ(totals[static_cast<size_t>(Layer::kBench)], 8u);
  EXPECT_TRUE(LayersAddUp(totals, 100, 0.05));  // 98%
}

TEST(LayerSum, ToleranceBothWays) {
  std::array<uint64_t, kNumLayers> totals{};
  totals[0] = 60;
  totals[1] = 36;
  EXPECT_TRUE(LayersAddUp(totals, 100, 0.05));   // 96%
  totals[1] = 34;
  EXPECT_FALSE(LayersAddUp(totals, 100, 0.05));  // 94%: spans miss time
  totals[1] = 46;
  EXPECT_FALSE(LayersAddUp(totals, 100, 0.05));  // 106%: double counting
  EXPECT_FALSE(LayersAddUp(totals, 0, 0.05));
}

TEST(ScopedSpan, RecordsNestingAndRequestIds) {
  SpanLog log(3, 16);
  ThreadTrace& t = CurrentTrace();
  t.log = &log;
  {
    ScopedSpan outer("outer", Layer::kServe);
    {
      ScopedSpan inner("inner", Layer::kMcdb);
      inner.set_flags(7);
    }
  }
  { ScopedSpan second("second", Layer::kServe); }
  t.log = nullptr;
  { ScopedSpan untraced("untraced", Layer::kServe); }

  const std::vector<Span>& s = log.spans();
  ASSERT_EQ(s.size(), 3u);
  const Span& inner = s[0];
  const Span& outer = s[1];
  const Span& second = s[2];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, outer.id);
  EXPECT_EQ(inner.flags, 7);
  EXPECT_EQ(inner.thread, 3u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.request, outer.id);
  EXPECT_EQ(second.parent, 0u);
  EXPECT_EQ(second.request, second.id);
  EXPECT_NE(second.id, outer.id);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_EQ(t.parent, 0u);
}

TEST(SelfTime, SpanMedianFiltersByNameAndFlags) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 10, Layer::kServe),
      MakeSpan(2, 0, 20, 50, Layer::kServe),
      MakeSpan(3, 0, 60, 160, Layer::kServe),
  };
  spans[2].flags = 1;
  EXPECT_EQ(SpanMedianNs(spans, nullptr, "s"), 30.0);
  EXPECT_EQ(SpanMedianNs(spans, nullptr, "s",
                         [](uint8_t f) { return f == 1; }),
            100.0);
  EXPECT_EQ(SpanMedianNs(spans, nullptr, "other"), 0.0);
  const std::vector<uint64_t> self = {1, 2, 3};
  EXPECT_EQ(SpanMedianNs(spans, &self, "s"), 2.0);
}

TEST(SpanLog, IdsAreUniqueAcrossLogs) {
  // Logs of one thread in successive phases, and of other threads.
  SpanLog a(0, 4);
  SpanLog b(1, 4);
  SpanLog c(0, 4);
  const uint64_t ia = a.NextId();
  EXPECT_NE(ia, b.NextId());
  EXPECT_NE(ia, c.NextId());
  EXPECT_NE(a.NextId(), 0u);
}

}  // namespace
}  // namespace perfbench
