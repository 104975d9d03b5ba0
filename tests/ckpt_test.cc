#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/fault.h"
#include "ckpt/recovery.h"
#include "ckpt/snapshot.h"
#include "obs/stat.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mde::ckpt {
namespace {

// ---------------------------------------------------------------------------
// Snapshot container format.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, RoundTripsTypedSections) {
  SnapshotWriter w("unit");
  SectionWriter* a = w.AddSection("alpha");
  a->PutU8(7);
  a->PutBool(true);
  a->PutU32(0xdeadbeef);
  a->PutU64(0x1122334455667788ULL);
  a->PutI64(-42);
  a->PutDouble(3.14159);
  a->PutString("hello");
  SectionWriter* b = w.AddSection("beta");
  b->PutDoubleVec({1.5, -2.5, 0.0});
  b->PutSizeVec({9, 8, 7});
  b->PutU64Vec({1, 2});
  const std::string bytes = w.Finish();

  auto snap = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  EXPECT_EQ(snap.value().engine(), "unit");
  EXPECT_TRUE(snap.value().has_section("alpha"));
  EXPECT_TRUE(snap.value().has_section("beta"));
  EXPECT_FALSE(snap.value().has_section("gamma"));

  auto ra = snap.value().section("alpha");
  ASSERT_TRUE(ra.ok());
  SectionReader& r = ra.value();
  EXPECT_EQ(r.U8(), 7u);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.Double(), 3.14159);
  EXPECT_EQ(r.String(), "hello");
  EXPECT_TRUE(r.ExpectEnd().ok());

  auto rb = snap.value().section("beta");
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value().DoubleVec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(rb.value().SizeVec(), (std::vector<size_t>{9, 8, 7}));
  EXPECT_EQ(rb.value().U64Vec(), (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(rb.value().ExpectEnd().ok());
}

TEST(SnapshotTest, DoublesAreBitExact) {
  // Values with no short decimal representation must survive exactly.
  const double v = 0.1 + 0.2;  // 0.30000000000000004
  SnapshotWriter w("unit");
  w.AddSection("s")->PutDouble(v);
  auto snap = SnapshotReader::Parse(w.Finish());
  ASSERT_TRUE(snap.ok());
  auto r = snap.value().section("s");
  ASSERT_TRUE(r.ok());
  const double back = r.value().Double();
  EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0);
}

TEST(SnapshotTest, DetectsCorruptionViaCrc) {
  SnapshotWriter w("unit");
  w.AddSection("s")->PutU64(12345);
  std::string bytes = w.Finish();
  // Flip one payload bit.
  bytes[bytes.size() / 2] ^= 0x01;
  auto snap = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RejectsBadMagicAndTruncation) {
  SnapshotWriter w("unit");
  w.AddSection("s")->PutU64(1);
  std::string bytes = w.Finish();

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(SnapshotReader::Parse(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_FALSE(SnapshotReader::Parse(bytes.substr(0, 10)).ok());
  EXPECT_FALSE(SnapshotReader::Parse("").ok());
}

TEST(SnapshotTest, MissingSectionIsNotFound) {
  SnapshotWriter w("unit");
  w.AddSection("present")->PutU8(1);
  auto snap = SnapshotReader::Parse(w.Finish());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.value().section("absent").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, ReaderLatchesOutOfBoundsReads) {
  SnapshotWriter w("unit");
  w.AddSection("s")->PutU8(5);
  auto snap = SnapshotReader::Parse(w.Finish());
  ASSERT_TRUE(snap.ok());
  auto r = snap.value().section("s");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().U8(), 5u);
  // Past the end: zero values, latched error, ExpectEnd fails too.
  EXPECT_EQ(r.value().U64(), 0u);
  EXPECT_DOUBLE_EQ(r.value().Double(), 0.0);
  EXPECT_FALSE(r.value().status().ok());
  EXPECT_FALSE(r.value().ExpectEnd().ok());
}

TEST(SnapshotTest, ExpectEndFailsOnTrailingBytes) {
  SnapshotWriter w("unit");
  SectionWriter* s = w.AddSection("s");
  s->PutU8(1);
  s->PutU8(2);
  auto snap = SnapshotReader::Parse(w.Finish());
  ASSERT_TRUE(snap.ok());
  auto r = snap.value().section("s");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().U8(), 1u);
  EXPECT_FALSE(r.value().ExpectEnd().ok());
}

TEST(SnapshotTest, RngStateRoundTripContinuesIdentically) {
  Rng rng(123);
  for (int i = 0; i < 100; ++i) rng.Next();
  SnapshotWriter w("unit");
  w.AddSection("rng")->PutRngState(rng.state());
  const std::string bytes = w.Finish();

  // Continue the original...
  std::vector<uint64_t> expected;
  for (int i = 0; i < 50; ++i) expected.push_back(rng.Next());
  // ...and a restored copy: identical stream.
  auto snap = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(snap.ok());
  auto r = snap.value().section("rng");
  ASSERT_TRUE(r.ok());
  Rng restored(0);
  restored.set_state(r.value().RngState());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(restored.Next(), expected[i]);
}

TEST(SnapshotTest, AtomicFileWriteRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ckpt_test_snapshot.bin";
  SnapshotWriter w("unit");
  w.AddSection("s")->PutDouble(2.5);
  const std::string bytes = w.Finish();
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), bytes);
  std::remove(path.c_str());
  EXPECT_EQ(ReadFile(path).status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Accumulator serialization: restore + continue == uninterrupted, exactly.
// ---------------------------------------------------------------------------

TEST(StatSerializationTest, WelfordRoundTripIsExact) {
  // RunningStat's (n, mean, m2) is the whole estimator: mean, variance and
  // CLT half-width all continue bit-exactly after a restore.
  RunningStat full, half;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 100.0 - 50.0;
    full.Add(x);
    half.Add(x);
  }
  RunningStat restored;
  restored.set_state(half.state());
  EXPECT_EQ(restored.half_width(), full.half_width());
  Rng rng2(77);
  for (int i = 0; i < 500; ++i) {
    const double x = rng2.NextDouble();
    full.Add(x);
    restored.Add(x);
  }
  EXPECT_EQ(restored.count(), full.count());
  EXPECT_EQ(restored.mean(), full.mean());              // bit-exact, not NEAR
  EXPECT_EQ(restored.variance(), full.variance());      // bit-exact
  EXPECT_EQ(restored.half_width(), full.half_width());  // bit-exact
}

TEST(StatSerializationTest, P2QuantileRoundTripIsExact) {
  obs::P2Quantile full(0.9), half(0.9);
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextDouble();
    full.Add(x);
    half.Add(x);
  }
  obs::P2Quantile restored(0.9);
  restored.set_state(half.state());
  Rng rng2(14);
  for (int i = 0; i < 200; ++i) {
    const double x = rng2.NextDouble();
    full.Add(x);
    restored.Add(x);
  }
  EXPECT_EQ(restored.count(), full.count());
  EXPECT_EQ(restored.Value(), full.Value());  // bit-exact
}

TEST(StatSerializationTest, P2QuantileRoundTripBeforeFiveObservations) {
  // The sketch is in its exact warm-up phase below five observations; the
  // state must capture that too.
  obs::P2Quantile a(0.5);
  a.Add(3.0);
  a.Add(1.0);
  obs::P2Quantile b(0.5);
  b.set_state(a.state());
  for (double x : {2.0, 5.0, 4.0, 0.5}) {
    a.Add(x);
    b.Add(x);
  }
  EXPECT_EQ(a.Value(), b.Value());
}

TEST(StatSerializationTest, ConvergenceMonitorRoundTripKeepsVerdict) {
  obs::ConvergenceMonitor a("", /*window=*/3);
  a.Add(10.0);
  a.Add(10.0);
  a.Add(10.0);
  a.Add(10.0);  // no improvement over a full window -> stalled
  ASSERT_EQ(a.verdict(), obs::ConvergenceMonitor::Verdict::kStalled);
  obs::ConvergenceMonitor b("", /*window=*/3);
  b.set_state(a.state());
  EXPECT_EQ(b.verdict(), a.verdict());
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.best(), a.best());
  a.Add(1.0);
  b.Add(1.0);
  EXPECT_EQ(b.verdict(), a.verdict());
}

TEST(StatSerializationTest, CiMonitorRoundTripIsExact) {
  RunningStat a;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) a.Add(x);
  RunningStat b;
  b.set_state(a.state());
  a.Add(6.0);
  b.Add(6.0);
  EXPECT_EQ(a.half_width(), b.half_width());
  EXPECT_EQ(a.mean(), b.mean());

  // Tiny n: a restored one-draw state still claims no precision.
  RunningStat one, one_restored;
  one.Add(4.0);
  one_restored.set_state(one.state());
  EXPECT_TRUE(std::isinf(one_restored.half_width()));
  one.Add(6.0);
  one_restored.Add(6.0);
  EXPECT_EQ(one_restored.half_width(), one.half_width());
  EXPECT_EQ(one_restored.mean(), one.mean());
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FiresExactlyAtConfiguredHit) {
  FaultInjector inj;
  FaultInjector::Config c;
  c.enabled = true;
  c.fire_at_hit = 3;
  inj.Configure(c);
  EXPECT_FALSE(inj.ShouldFail("p"));
  EXPECT_FALSE(inj.ShouldFail("p"));
  EXPECT_TRUE(inj.ShouldFail("p"));
  // max_faults defaults to 1: quiet afterwards.
  EXPECT_FALSE(inj.ShouldFail("p"));
  EXPECT_EQ(inj.faults_fired(), 1u);
  EXPECT_EQ(inj.hits("p"), 4u);
}

TEST(FaultInjectorTest, PointFilterScopesInjection) {
  FaultInjector inj;
  FaultInjector::Config c;
  c.enabled = true;
  c.point = "dsgd.round";
  c.fire_at_hit = 1;
  inj.Configure(c);
  EXPECT_FALSE(inj.ShouldFail("smc.step"));  // different point: never fires
  EXPECT_TRUE(inj.ShouldFail("dsgd.round"));
}

TEST(FaultInjectorTest, ProbabilityModeIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    FaultInjector inj;
    FaultInjector::Config c;
    c.enabled = true;
    c.probability = 0.3;
    c.seed = seed;
    c.max_faults = 1000;
    inj.Configure(c);
    std::vector<bool> fires;
    for (int i = 0; i < 100; ++i) fires.push_back(inj.ShouldFail("p"));
    return fires;
  };
  EXPECT_EQ(schedule(42), schedule(42));  // reproducible
  EXPECT_NE(schedule(42), schedule(43));  // seed-dependent
}

TEST(FaultInjectorTest, MaybeFailThrowsFaultInjected) {
  FaultInjector inj;
  FaultInjector::Config c;
  c.enabled = true;
  c.fire_at_hit = 1;
  inj.Configure(c);
  try {
    inj.MaybeFail("unit.point");
    FAIL() << "expected FaultInjected";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.point(), "unit.point");
    EXPECT_EQ(e.hit(), 1u);
  }
}

TEST(FaultInjectorTest, FromEnvParsesKnobs) {
  ::setenv("MDE_FAULT_POINT", "dsgd.round", 1);
  ::setenv("MDE_FAULT_AT", "5", 1);
  ::setenv("MDE_FAULT_MAX", "2", 1);
  const FaultInjector::Config c = FaultInjector::FromEnv();
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.point, "dsgd.round");
  EXPECT_EQ(c.fire_at_hit, 5u);
  EXPECT_EQ(c.max_faults, 2u);
  ::unsetenv("MDE_FAULT_POINT");
  ::unsetenv("MDE_FAULT_AT");
  ::unsetenv("MDE_FAULT_MAX");
  const FaultInjector::Config off = FaultInjector::FromEnv();
  EXPECT_FALSE(off.enabled);
}

TEST(RetryPolicyTest, BackoffGrowsGeometrically) {
  RetryPolicy p;
  p.backoff_initial_ms = 2.0;
  p.backoff_factor = 3.0;
  EXPECT_DOUBLE_EQ(p.BackoffMs(0), 2.0);
  EXPECT_DOUBLE_EQ(p.BackoffMs(1), 6.0);
  EXPECT_DOUBLE_EQ(p.BackoffMs(2), 18.0);
}

TEST(RetryPolicyTest, RetriesTransientFaultsThenSucceeds) {
  RetryPolicy p;
  p.max_retries = 3;
  p.sleep = false;
  int calls = 0;
  const Status st = p.Run("unit", [&]() -> Status {
    if (++calls < 3) throw FaultInjected("unit", calls);
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, ExhaustsRetryBudget) {
  RetryPolicy p;
  p.max_retries = 2;
  p.sleep = false;
  int calls = 0;
  const Status st = p.Run("unit", [&]() -> Status {
    throw FaultInjected("unit", ++calls);
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 3);  // initial attempt + 2 retries
}

// ---------------------------------------------------------------------------
// RunWithRecovery on a toy engine.
// ---------------------------------------------------------------------------

/// Deterministic accumulator: each step folds one RNG draw into a running
/// sum. Complete state = (cursor, sum, rng), so restore + replay is exact.
class ToyEngine : public Checkpointable {
 public:
  explicit ToyEngine(size_t steps) : steps_(steps), rng_(99) {}

  std::string engine_name() const override { return "toy"; }
  bool Done() const override { return i_ >= steps_; }
  Status StepOnce() override {
    if (Done()) return Status::FailedPrecondition("done");
    MDE_FAULT_POINT("toy.step");
    sum_ += rng_.NextDouble();
    ++i_;
    return Status::OK();
  }
  Result<std::string> Save() const override {
    SnapshotWriter w(engine_name());
    SectionWriter* s = w.AddSection("state");
    s->PutU64(i_);
    s->PutDouble(sum_);
    s->PutRngState(rng_.state());
    return w.Finish();
  }
  Status Restore(const std::string& snapshot) override {
    MDE_ASSIGN_OR_RETURN(SnapshotReader snap, SnapshotReader::Parse(snapshot));
    MDE_ASSIGN_OR_RETURN(SectionReader s, snap.section("state"));
    i_ = s.U64();
    sum_ = s.Double();
    rng_.set_state(s.RngState());
    return s.ExpectEnd();
  }

  double sum() const { return sum_; }

 private:
  size_t steps_;
  size_t i_ = 0;
  double sum_ = 0.0;
  Rng rng_;
};

TEST(RunWithRecoveryTest, CompletesWithoutFaults) {
  FaultInjector::Global().Configure({});  // quiesce
  ToyEngine e(10);
  RecoveryOptions opts;
  auto stats = RunWithRecovery(e, opts);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().steps, 10u);
  EXPECT_EQ(stats.value().faults, 0u);
  EXPECT_TRUE(e.Done());
}

TEST(RunWithRecoveryTest, RecoversBitIdenticallyFromInjectedFault) {
  FaultInjector::Global().Configure({});
  ToyEngine reference(20);
  while (!reference.Done()) ASSERT_TRUE(reference.StepOnce().ok());

  FaultInjector::Config c;
  c.enabled = true;
  c.point = "toy.step";
  c.fire_at_hit = 7;
  FaultInjector::Global().Configure(c);
  ToyEngine faulty(20);
  RecoveryOptions opts;
  opts.checkpoint_every = 1;
  opts.retry.sleep = false;
  auto stats = RunWithRecovery(faulty, opts);
  FaultInjector::Global().Configure({});
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().faults, 1u);
  EXPECT_GE(stats.value().restores, 1u);
  EXPECT_EQ(faulty.sum(), reference.sum());  // bit-exact
}

TEST(RunWithRecoveryTest, GivesUpAfterRetryBudget) {
  // probability 1.0 with an unbounded fault budget: every step attempt
  // fails, so the retry budget must eventually give up.
  FaultInjector::Config c;
  c.enabled = true;
  c.point = "toy.step";
  c.probability = 1.0;
  c.max_faults = 1000;
  FaultInjector::Global().Configure(c);
  ToyEngine e(5);
  RecoveryOptions opts;
  opts.retry.max_retries = 2;
  opts.retry.sleep = false;
  auto stats = RunWithRecovery(e, opts);
  FaultInjector::Global().Configure({});
  EXPECT_FALSE(stats.ok());
}

TEST(RunWithRecoveryTest, PersistsCheckpointsToDisk) {
  FaultInjector::Global().Configure({});
  const std::string path = ::testing::TempDir() + "/toy.ckpt";
  ToyEngine e(6);
  RecoveryOptions opts;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = path;
  ASSERT_TRUE(RunWithRecovery(e, opts).ok());
  auto bytes = ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  // The persisted snapshot restores into a working engine.
  ToyEngine fresh(6);
  ASSERT_TRUE(fresh.Restore(bytes.value()).ok());
  while (!fresh.Done()) ASSERT_TRUE(fresh.StepOnce().ok());
  EXPECT_EQ(fresh.sum(), e.sum());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mde::ckpt
