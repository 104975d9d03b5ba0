#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "mcdb/bundle.h"
#include "mcdb/estimators.h"
#include "mcdb/mcdb.h"
#include "mcdb/pregen.h"
#include "mcdb/vg_function.h"
#include "obs/mem.h"
#include "row_oracle.h"
#include "table/query.h"
#include "util/distributions.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mde::mcdb {
namespace {

using table::CmpOp;
using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

/// Builds the paper's SBP example: PATIENTS plus a single-row SBP_PARAM
/// table holding (mean, std), and the stochastic SBP_DATA spec.
MonteCarloDb MakeSbpDb(double mean, double std, size_t patients) {
  MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  EXPECT_TRUE(db.AddTable("PATIENTS", std::move(p)).ok());
  Table param{Schema({{"MEAN", DataType::kDouble},
                      {"STD", DataType::kDouble}})};
  param.Append({Value(mean), Value(std)});
  EXPECT_TRUE(db.AddTable("SBP_PARAM", std::move(param)).ok());

  StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<NormalVg>();
  spec.param_binder = [](const Row&, const DatabaseInstance& det)
      -> Result<Row> {
    // WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s)).
    const Table& param = det.at("SBP_PARAM");
    return Row{param.row(0)[0], param.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  EXPECT_TRUE(db.AddStochasticTable(std::move(spec)).ok());
  return db;
}

TEST(VgFunctionTest, NormalShape) {
  NormalVg vg;
  Rng rng(1);
  std::vector<Row> out;
  ASSERT_TRUE(vg.Generate({Value(10.0), Value(0.0)}, rng, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), 10.0);  // zero std
  EXPECT_FALSE(vg.Generate({Value(1.0)}, rng, &out).ok());  // arity
}

TEST(VgFunctionTest, PoissonNonNegative) {
  PoissonVg vg;
  Rng rng(2);
  std::vector<Row> out;
  for (int i = 0; i < 100; ++i) {
    out.clear();
    ASSERT_TRUE(vg.Generate({Value(3.0)}, rng, &out).ok());
    EXPECT_GE(out[0][0].AsInt(), 0);
  }
}

TEST(VgFunctionTest, BackwardWalkProducesSteps) {
  BackwardRandomWalkVg vg;
  Rng rng(3);
  std::vector<Row> out;
  ASSERT_TRUE(vg.Generate({Value(100.0), Value(0.001), Value(0.02),
                           Value(int64_t{5})},
                          rng, &out)
                  .ok());
  EXPECT_EQ(out.size(), 5u);
  for (const Row& r : out) EXPECT_GT(r[1].AsDouble(), 0.0);
  EXPECT_EQ(out[0][0].AsInt(), -1);
  EXPECT_EQ(out[4][0].AsInt(), -5);
}

TEST(VgFunctionTest, BayesianDemandRespondsToPrice) {
  BayesianDemandVg vg;
  Rng rng(4);
  // High price should produce lower average demand than low price.
  auto mean_demand = [&](double price) {
    double total = 0;
    std::vector<Row> out;
    for (int i = 0; i < 3000; ++i) {
      out.clear();
      EXPECT_TRUE(vg.Generate({Value(2.0), Value(1.0), Value(20.0),
                               Value(10.0), Value(price), Value(10.0),
                               Value(1.5)},
                              rng, &out)
                      .ok());
      total += static_cast<double>(out[0][0].AsInt());
    }
    return total / 3000;
  };
  EXPECT_GT(mean_demand(5.0), mean_demand(20.0) * 1.5);
}

TEST(McdbTest, InstantiateRealizesStochasticTable) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 50);
  auto inst = db.Instantiate(7, 0);
  ASSERT_TRUE(inst.ok());
  const Table& sbp = inst.value().at("SBP_DATA");
  EXPECT_EQ(sbp.num_rows(), 50u);
  // Values look like draws around 120.
  double mean = table::oracle::AvgColumn(sbp, "SBP").value();
  EXPECT_NEAR(mean, 120.0, 10.0);
}

TEST(McdbTest, DifferentRepsDiffer) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto a = db.Instantiate(7, 0);
  auto b = db.Instantiate(7, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().at("SBP_DATA").row(0)[2].AsDouble(),
            b.value().at("SBP_DATA").row(0)[2].AsDouble());
}

TEST(McdbTest, SameRepReproducible) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto a = db.Instantiate(7, 3);
  auto b = db.Instantiate(7, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().at("SBP_DATA").row(5)[2].AsDouble(),
                   b.value().at("SBP_DATA").row(5)[2].AsDouble());
}

TEST(McdbTest, DuplicateNamesRejected) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 5);
  Table t{Schema({{"x", DataType::kInt64}})};
  EXPECT_FALSE(db.AddTable("PATIENTS", t).ok());
}

TEST(McdbTest, NaiveMonteCarloEstimatesQueryDistribution) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 200);
  // Query: average SBP over all patients.
  auto query = [](const DatabaseInstance& inst) -> Result<double> {
    return table::oracle::AvgColumn(inst.at("SBP_DATA"), "SBP");
  };
  auto samples = db.RunNaive(query, 50, 11);
  ASSERT_TRUE(samples.ok());
  auto summary = Summarize(samples.value());
  ASSERT_TRUE(summary.ok());
  EXPECT_NEAR(summary.value().mean, 120.0, 1.0);
  // Std error of a 200-patient average with sd 15 is ~1.06.
  EXPECT_NEAR(std::sqrt(summary.value().variance), 15.0 / std::sqrt(200.0),
              0.5);
}

TEST(BundleTest, GenerationShape) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 30);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 64, 13);
  ASSERT_TRUE(bundles.ok());
  EXPECT_EQ(bundles.value().num_rows(), 30u);
  EXPECT_EQ(bundles.value().num_reps(), 64u);
}

TEST(BundleTest, AggregateMatchesNaiveDistribution) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 100);
  const size_t reps = 200;
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 17);
  ASSERT_TRUE(bundles.ok());
  auto sums = bundles.value().AggregateAvg("SBP");
  ASSERT_TRUE(sums.ok());
  EXPECT_EQ(sums.value().size(), reps);
  EXPECT_NEAR(Mean(sums.value()), 120.0, 1.0);
  EXPECT_NEAR(StdDev(sums.value()), 15.0 / std::sqrt(100.0), 0.4);
}

TEST(BundleTest, FilterDetAppliesOnce) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 40);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 16, 19);
  ASSERT_TRUE(bundles.ok());
  auto pred = table::ColumnCompare(bundles.value().det_schema(), "GENDER",
                                   CmpOp::kEq, "F");
  ASSERT_TRUE(pred.ok());
  BundleTable females = bundles.value().FilterDet(pred.value());
  EXPECT_EQ(females.num_rows(), 20u);
}

TEST(BundleTest, FilterStochIsPerRepetition) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 50);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 32, 23);
  ASSERT_TRUE(bundles.ok());
  auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0);
  ASSERT_TRUE(high.ok());
  auto counts = high.value().AggregateCount();
  // About half the patients exceed the mean in each repetition.
  EXPECT_NEAR(Mean(counts), 25.0, 5.0);
  // Counts vary across repetitions (the per-rep masks differ).
  EXPECT_GT(StdDev(counts), 0.5);
}

/// The determinism contract of the columnar kernels: generation and the
/// whole filter/aggregate pipeline must be BIT-identical for the serial
/// path and for pools of any size. Chunk boundaries (BundleTable::kRowGrain)
/// and the partial-sum combine order are pure functions of the row count,
/// and every row owns its RNG substream, so thread count must not leak into
/// a single bit of the result.
TEST(BundleTest, ParallelExecutionIsBitIdentical) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);  // > 2 chunks of 256 rows
  const uint64_t seed = 31;

  // 64 reps: one full mask word per row; 100: a full word plus a partial
  // one; 1000: fifteen full words, a partial one, and a value block big
  // enough for the huge-block recycler.
  for (size_t reps : {64u, 100u, 1000u}) {
    auto run = [&](ThreadPool* pool) {
      auto bundles = GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                     reps, seed, pool);
      EXPECT_TRUE(bundles.ok());
      auto sums = bundles.value().AggregateSum("SBP");
      EXPECT_TRUE(sums.ok());
      auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0);
      EXPECT_TRUE(high.ok());
      auto avg = high.value().AggregateAvg("SBP");
      EXPECT_TRUE(avg.ok());
      auto high_sums = high.value().AggregateSum("SBP");
      EXPECT_TRUE(high_sums.ok());
      auto groups = high.value().GroupSum("GENDER", "SBP");
      EXPECT_TRUE(groups.ok());
      std::vector<double> out = sums.value();
      out.insert(out.end(), avg.value().begin(), avg.value().end());
      out.insert(out.end(), high_sums.value().begin(),
                 high_sums.value().end());
      for (const auto& g : groups.value()) {
        out.insert(out.end(), g.sums.begin(), g.sums.end());
      }
      return out;
    };

    const std::vector<double> serial = run(nullptr);
    // Back to back in one process: at 1000 reps this generation runs on the
    // value block the first one just freed.
    const std::vector<double> again = run(nullptr);
    ASSERT_EQ(again.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(again[i], serial[i])
          << "reps " << reps << ": second run diverged at sample " << i;
    }
    for (size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const std::vector<double> parallel = run(&pool);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        // EXPECT_EQ, not EXPECT_NEAR: the contract is bitwise.
        EXPECT_EQ(parallel[i], serial[i])
            << "reps " << reps << ", thread count " << threads
            << " diverged at sample " << i;
      }
    }
  }
}

/// A bundle query frees its value block and the next one of the same size
/// takes it back from the huge-block recycler: the second generation must
/// write every element of a block that still holds the first one's values
/// (0xbe bytes under ASan), and produce the same table.
TEST(BundleTest, BackToBackGenerationReusesTheValueBlock) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);
  const size_t reps = 1000;  // 700 x 1000 doubles: a huge block
  ThreadPool pool(3);
  std::vector<double> first_values;
  std::vector<double> first_avg;
  const void* first_block = nullptr;
  {
    auto b = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 17,
                             &pool);
    ASSERT_TRUE(b.ok());
    const auto& block = b.value().stoch_block(0);
    first_block = block.data();
    first_values.assign(block.begin(), block.end());
    first_avg = b.value().FilterStoch("SBP", CmpOp::kGt, 120.0)
                    .value()
                    .AggregateAvg("SBP")
                    .value();
  }
  auto b = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 17,
                           &pool);
  ASSERT_TRUE(b.ok());
  const auto& block = b.value().stoch_block(0);
  EXPECT_EQ(static_cast<const void*>(block.data()), first_block);
  ASSERT_EQ(block.size(), first_values.size());
  EXPECT_EQ(std::memcmp(block.data(), first_values.data(),
                        first_values.size() * sizeof(double)),
            0);
  const std::vector<double> avg = b.value()
                                      .FilterStoch("SBP", CmpOp::kGt, 120.0)
                                      .value()
                                      .AggregateAvg("SBP")
                                      .value();
  ASSERT_EQ(avg.size(), first_avg.size());
  for (size_t i = 0; i < avg.size(); ++i) EXPECT_EQ(avg[i], first_avg[i]);
}

/// A filter that keeps every row, and MapStoch, share the source's
/// deterministic rows; the memory pool charges them once.
TEST(BundleTest, IdentityFilterSharesDeterministicRows) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 300);
  std::optional<BundleTable> src;
  src.emplace(
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 100, 7).value());
  const uint64_t rows_bytes =
      src->ApproxBytes() - src->stoch_block(0).capacity() * sizeof(double) -
      src->active_words().capacity() * sizeof(uint64_t);
  EXPECT_GE(rows_bytes, src->num_rows() * sizeof(Row));

  const uint64_t live_before = obs::LiveBytes("mcdb.bundle");
  // Every finite value exceeds -inf: no row dies.
  BundleTable all =
      src->FilterStoch("SBP", CmpOp::kGt,
                       -std::numeric_limits<double>::infinity())
          .value();
  ASSERT_EQ(all.num_rows(), src->num_rows());
  EXPECT_EQ(&all.det_row(0), &src->det_row(0));
  EXPECT_EQ(&all.stoch_block(0), &src->stoch_block(0));
  // Shared rows and block stay on the source's account; the filter adds
  // only its own masks.
  const uint64_t masks = all.active_words().capacity() * sizeof(uint64_t);
  EXPECT_EQ(all.ApproxBytes(), masks);
  EXPECT_EQ(obs::LiveBytes("mcdb.bundle") - live_before, masks);

  {
    auto mapped = src->MapStoch(
        "TWICE", [](const Row&, const std::vector<double>& s) {
          return 2.0 * s[0];
        });
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(&mapped.value().det_row(0), &src->det_row(0));
  }

  // A filter that drops rows builds its own.
  auto pred = table::ColumnCompare(src->det_schema(), "GENDER", CmpOp::kEq,
                                   Value("M"));
  ASSERT_TRUE(pred.ok());
  BundleTable males = src->FilterDet(pred.value());
  ASSERT_EQ(males.num_rows(), src->num_rows() / 2);
  EXPECT_EQ(males.det_row(0)[0].AsInt(), 1);
  EXPECT_NE(&males.det_row(0), &src->det_row(1));

  // Once the source is gone the filter is the sole owner and charges the
  // rows and the value block itself.
  src.reset();
  EXPECT_EQ(all.ApproxBytes(),
            rows_bytes + all.stoch_block(0).capacity() * sizeof(double) +
                masks);
}

/// Row materialization round-trips the packed columnar storage.
TEST(BundleTest, RowMaterializesPackedMasks) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 10);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 70, 5);
  ASSERT_TRUE(bundles.ok());
  auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0).value();
  ASSERT_GT(high.num_rows(), 0u);
  const auto r0 = high.row(0);
  ASSERT_EQ(r0.active.size(), 70u);
  ASSERT_EQ(r0.stoch.size(), 1u);
  size_t active_count = 0;
  for (size_t rep = 0; rep < 70; ++rep) {
    EXPECT_EQ(r0.active[rep] != 0, high.is_active(0, rep));
    if (r0.active[rep]) {
      ++active_count;
      EXPECT_GT(r0.stoch[0][rep], 120.0);
      EXPECT_EQ(r0.stoch[0][rep], high.stoch_block(0)[rep]);
    }
  }
  EXPECT_GT(active_count, 0u);
  EXPECT_LT(active_count, 70u);
}

TEST(BundleTest, MapStochComputesDerivedAttribute) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 8, 29);
  ASSERT_TRUE(bundles.ok());
  auto mapped = bundles.value().MapStoch(
      "SBP_SHIFT", [](const Row&, const std::vector<double>& s) {
        return s[0] - 100.0;
      });
  ASSERT_TRUE(mapped.ok());
  auto a = mapped.value().AggregateSum("SBP").value();
  auto b = mapped.value().AggregateSum("SBP_SHIFT").value();
  for (size_t rep = 0; rep < a.size(); ++rep) {
    EXPECT_NEAR(a[rep] - b[rep], 1000.0, 1e-9);  // 10 rows * 100
  }
}

TEST(EstimatorsTest, SummaryFields) {
  std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sum = Summarize(s);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value().mean, 5.5);
  EXPECT_DOUBLE_EQ(sum.value().min, 1);
  EXPECT_DOUBLE_EQ(sum.value().max, 10);
  EXPECT_DOUBLE_EQ(sum.value().median, 5.5);
  EXPECT_FALSE(Summarize({}).ok());
}

TEST(EstimatorsTest, ThresholdProbability) {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(i);
  auto est = ThresholdProbability(s, 75.0, 0.95);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est.value().probability, 0.25);
  EXPECT_GT(est.value().half_width, 0.0);
}

TEST(EstimatorsTest, ExtremeQuantileBrackets) {
  Rng rng(31);
  std::vector<double> s;
  for (int i = 0; i < 20000; ++i) s.push_back(SampleNormal(rng, 0, 1));
  auto est = ExtremeQuantile(s, 0.99, 0.95);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().value, 2.326, 0.1);
  EXPECT_LE(est.value().ci_low, est.value().value);
  EXPECT_GE(est.value().ci_high, est.value().value);
}

TEST(EstimatorsTest, GroupThreshold) {
  std::vector<GroupSamples> groups = {
      {"declines", {0.03, 0.04, 0.05, 0.01, 0.06}},
      {"stable", {0.0, 0.01, 0.0, 0.01, 0.0}},
  };
  // Which groups decline by > 2% with >= 50% probability?
  auto hits = GroupsExceedingThreshold(groups, 0.02, 0.5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0], "declines");
}

// ---------------------------------------------------------------------------
// Pre-generation pushdown (pregen.h): deterministic predicates hoisted
// below VG generation must reproduce generate-then-FilterDet bit for bit —
// same deterministic rows, same sampled doubles, same mask words — for any
// thread count.
// ---------------------------------------------------------------------------

void ExpectBundlesBitIdentical(const BundleTable& a, const BundleTable& b,
                               const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_reps(), b.num_reps()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    const Row& ra = a.det_row(i);
    const Row& rb = b.det_row(i);
    ASSERT_EQ(ra.size(), rb.size()) << what;
    for (size_t c = 0; c < ra.size(); ++c) {
      ASSERT_TRUE(ra[c] == rb[c]) << what << ": det row " << i;
    }
  }
  const auto& sa = a.stoch_block(0);
  const auto& sb = b.stoch_block(0);
  ASSERT_EQ(sa.size(), sb.size()) << what;
  if (!sa.empty()) {
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(double)),
              0)
        << what << ": stochastic blocks differ";
  }
  const auto& wa = a.active_words();
  const auto& wb = b.active_words();
  ASSERT_EQ(wa.size(), wb.size()) << what;
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i], wb[i]) << what << ": mask word " << i;
  }
}

TEST(PregenTest, PushdownMatchesGenerateThenFilterBitIdentically) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 500);
  const size_t reps = 70;  // not a multiple of 64: tail mask bits in play
  auto full = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 31);
  ASSERT_TRUE(full.ok());
  auto pred = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                   CmpOp::kEq, Value("F"));
  ASSERT_TRUE(pred.ok());
  BundleTable expect = full.value().FilterDet(pred.value());
  ASSERT_GT(expect.num_rows(), 0u);
  ASSERT_LT(expect.num_rows(), 500u);

  PregenReport report;
  auto pushed = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 31,
                                     {{"GENDER", CmpOp::kEq, Value("F")}},
                                     nullptr, &report);
  ASSERT_TRUE(pushed.ok());
  ExpectBundlesBitIdentical(expect, pushed.value(), "pushdown vs filter");
  EXPECT_EQ(report.outer_rows, 500u);
  EXPECT_EQ(report.kept_rows, expect.num_rows());
  EXPECT_EQ(report.rows_pruned, 500u - expect.num_rows());
  EXPECT_EQ(report.draws_saved, (500u - expect.num_rows()) * reps);
}

TEST(PregenTest, BitIdenticalAcrossThreadCounts) {
  MonteCarloDb db = MakeSbpDb(100.0, 5.0, 999);
  const size_t reps = 33;
  std::vector<table::PlanPredicate> preds = {
      {"GENDER", CmpOp::kEq, Value("M")},
      {"PID", CmpOp::kLt, Value(int64_t{700})}};
  auto serial = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 77, preds);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    auto parallel = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                         reps, 77, preds, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectBundlesBitIdentical(serial.value(), parallel.value(),
                              "threads=" + std::to_string(threads));
  }
  // The two-predicate conjunction equals generate-then-filter too.
  auto full =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 77);
  ASSERT_TRUE(full.ok());
  auto p1 = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                 CmpOp::kEq, Value("M"));
  auto p2 = table::ColumnCompare(full.value().det_schema(), "PID", CmpOp::kLt,
                                 Value(int64_t{700}));
  ASSERT_TRUE(p1.ok() && p2.ok());
  BundleTable expect = full.value().FilterDet(
      [&p1, &p2](const Row& r) { return p1.value()(r) && p2.value()(r); });
  ExpectBundlesBitIdentical(expect, serial.value(), "conjunction");
}

TEST(PregenTest, NoPredicatesEqualsGenerateBundles) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 128);
  auto a = GenerateBundles(db, db.stochastic_specs()[0], "SBP", 16, 9);
  PregenReport report;
  auto b = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 16, 9,
                                {}, nullptr, &report);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBundlesBitIdentical(a.value(), b.value(), "no predicates");
  EXPECT_EQ(report.kept_rows, 128u);
  EXPECT_EQ(report.draws_saved, 0u);
}

TEST(PregenTest, EmptySurvivorSetAndBadPredicates) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 64);
  // Nothing survives: a well-formed, zero-row bundle (no draws made).
  PregenReport report;
  auto none = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 8, 3,
                                   {{"PID", CmpOp::kLt, Value(int64_t{0})}},
                                   nullptr, &report);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().num_rows(), 0u);
  EXPECT_EQ(report.draws_saved, 64u * 8u);
  auto sums = none.value().AggregateSum("SBP");
  ASSERT_TRUE(sums.ok());
  for (double s : sums.value()) EXPECT_EQ(s, 0.0);
  // Unknown predicate column: an error, same as FilterDet's ColumnCompare.
  auto bad = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 8, 3,
                                  {{"NOPE", CmpOp::kEq, Value(int64_t{1})}});
  EXPECT_FALSE(bad.ok());
}

TEST(PregenTest, AggregatesMatchBetweenPushdownAndFilter) {
  MonteCarloDb db = MakeSbpDb(150.0, 20.0, 400);
  const size_t reps = 64;
  auto full = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 55);
  ASSERT_TRUE(full.ok());
  auto pred = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                   CmpOp::kEq, Value("F"));
  ASSERT_TRUE(pred.ok());
  auto ref = full.value().FilterDet(pred.value()).AggregateSum("SBP");
  auto pushed = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 55,
                                     {{"GENDER", CmpOp::kEq, Value("F")}});
  ASSERT_TRUE(pushed.ok());
  auto got = pushed.value().AggregateSum("SBP");
  ASSERT_TRUE(ref.ok() && got.ok());
  ASSERT_EQ(ref.value().size(), got.value().size());
  for (size_t r = 0; r < ref.value().size(); ++r) {
    uint64_t ba, bb;
    std::memcpy(&ba, &ref.value()[r], sizeof(ba));
    std::memcpy(&bb, &got.value()[r], sizeof(bb));
    EXPECT_EQ(ba, bb) << "rep " << r;
  }
}

/// A binder that fails on one row fails the whole generation with that
/// row's Status, at every thread count and with or without pushdown: the
/// partly written (and never zeroed) value block is dropped, not returned.
TEST(PregenTest, BinderErrorPropagatesAtEveryThreadCount) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);  // > 2 chunks of 256 rows
  StochasticTableSpec spec = db.stochastic_specs()[0];
  spec.param_binder = [](const Row& outer, const DatabaseInstance& det)
      -> Result<Row> {
    if (outer[0].AsInt() == 600) {  // an "F" row in the third chunk
      return Status::InvalidArgument("no parameters for PID 600");
    }
    const Table& param = det.at("SBP_PARAM");
    return Row{param.row(0)[0], param.row(0)[1]};
  };
  auto expect_error = [](const Result<BundleTable>& r,
                         const std::string& what) {
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_EQ(r.status().message(), "no parameters for PID 600") << what;
  };
  const std::vector<table::PlanPredicate> keep_f = {
      {"GENDER", CmpOp::kEq, Value("F")}};
  expect_error(GenerateBundles(db, spec, "SBP", 70, 3), "serial generate");
  expect_error(GenerateBundlesWhere(db, spec, "SBP", 70, 3, keep_f),
               "serial pushdown");
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    const std::string t = " threads=" + std::to_string(threads);
    expect_error(GenerateBundles(db, spec, "SBP", 70, 3, &pool),
                 "generate" + t);
    expect_error(GenerateBundlesWhere(db, spec, "SBP", 70, 3, keep_f, &pool),
                 "pushdown" + t);
  }
}

}  // namespace
}  // namespace mde::mcdb
