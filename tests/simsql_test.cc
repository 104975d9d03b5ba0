#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ckpt/snapshot.h"
#include "simsql/simsql.h"
#include "table/ops.h"
#include "util/distributions.h"
#include "util/stats.h"

namespace mde::simsql {
namespace {

using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

/// A chain table WALKERS(id, pos): each step every walker moves by a
/// standard normal increment — a database-valued random walk.
ChainTableSpec MakeWalkerSpec(size_t walkers) {
  ChainTableSpec spec;
  spec.name = "WALKERS";
  spec.init = [walkers](const DatabaseState&, Rng&) -> Result<Table> {
    Table t{Schema({{"id", DataType::kInt64}, {"pos", DataType::kDouble}})};
    for (size_t i = 0; i < walkers; ++i) {
      t.Append({Value(static_cast<int64_t>(i)), Value(0.0)});
    }
    return t;
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState&,
                       Rng& rng) -> Result<Table> {
    const Table& old = prev.at("WALKERS");
    Table t(old.schema());
    for (const Row& r : old.rows()) {
      t.Append({r[0], Value(r[1].AsDouble() + SampleStandardNormal(rng))});
    }
    return t;
  };
  return spec;
}

TEST(MarkovChainTest, RunProducesVersions) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(20)).ok());
  size_t versions_seen = 0;
  auto final_state = db.Run(10, 42, 0, [&](size_t i, const DatabaseState& s) {
    EXPECT_EQ(i, versions_seen++);
    EXPECT_EQ(s.at("WALKERS").num_rows(), 20u);
    return Status::OK();
  });
  ASSERT_TRUE(final_state.ok());
  EXPECT_EQ(versions_seen, 11u);  // D[0] .. D[10]
}

TEST(MarkovChainTest, VarianceGrowsLinearly) {
  // Var(pos at step t) = t for a standard random walk.
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(4000)).ok());
  auto state = db.Run(9, 7, 0);
  ASSERT_TRUE(state.ok());
  std::vector<double> positions;
  for (const Row& r : state.value().at("WALKERS").rows()) {
    positions.push_back(r[1].AsDouble());
  }
  EXPECT_NEAR(Variance(positions), 9.0, 0.7);
}

TEST(MarkovChainTest, HistoryRetention) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(3)).ok());
  db.set_history_limit(4);
  ASSERT_TRUE(db.Run(10, 1, 0).ok());
  EXPECT_EQ(db.history().size(), 4u);
}

TEST(MarkovChainTest, CrossTableParametrization) {
  // Table B's generation is parameterized by chain table A: A counts up,
  // B holds 2 * A's value. (SimSQL recursive definitions.)
  MarkovChainDb db;
  ChainTableSpec a;
  a.name = "A";
  a.init = [](const DatabaseState&, Rng&) -> Result<Table> {
    Table t{Schema({{"v", DataType::kInt64}})};
    t.Append({Value(int64_t{0})});
    return t;
  };
  a.transition = [](const DatabaseState& prev, const DatabaseState&,
                    Rng&) -> Result<Table> {
    Table t{Schema({{"v", DataType::kInt64}})};
    t.Append({Value(prev.at("A").row(0)[0].AsInt() + 1)});
    return t;
  };
  ChainTableSpec b;
  b.name = "B";
  // B reads the SAME-version A (registered before it).
  b.init = [](const DatabaseState& current, Rng&) -> Result<Table> {
    Table t{Schema({{"v", DataType::kInt64}})};
    t.Append({Value(current.at("A").row(0)[0].AsInt() * 2)});
    return t;
  };
  b.transition = [](const DatabaseState&, const DatabaseState& current,
                    Rng&) -> Result<Table> {
    Table t{Schema({{"v", DataType::kInt64}})};
    t.Append({Value(current.at("A").row(0)[0].AsInt() * 2)});
    return t;
  };
  ASSERT_TRUE(db.AddChainTable(std::move(a)).ok());
  ASSERT_TRUE(db.AddChainTable(std::move(b)).ok());
  auto state = db.Run(5, 3, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().at("A").row(0)[0].AsInt(), 5);
  EXPECT_EQ(state.value().at("B").row(0)[0].AsInt(), 10);
}

TEST(MarkovChainTest, DeterministicTablesVisible) {
  MarkovChainDb db;
  Table params{Schema({{"drift", DataType::kDouble}})};
  params.Append({Value(1.0)});
  ASSERT_TRUE(db.AddDeterministic("PARAMS", std::move(params)).ok());
  ChainTableSpec spec;
  spec.name = "X";
  spec.init = [](const DatabaseState& cur, Rng&) -> Result<Table> {
    EXPECT_TRUE(cur.count("PARAMS") > 0);
    Table t{Schema({{"v", DataType::kDouble}})};
    t.Append({Value(0.0)});
    return t;
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState& cur,
                       Rng&) -> Result<Table> {
    const double drift = cur.at("PARAMS").row(0)[0].AsDouble();
    Table t{Schema({{"v", DataType::kDouble}})};
    t.Append({Value(prev.at("X").row(0)[0].AsDouble() + drift)});
    return t;
  };
  ASSERT_TRUE(db.AddChainTable(std::move(spec)).ok());
  auto state = db.Run(7, 5, 0);
  ASSERT_TRUE(state.ok());
  EXPECT_DOUBLE_EQ(state.value().at("X").row(0)[0].AsDouble(), 7.0);
}

TEST(MarkovChainTest, RejectsDuplicatesAndIncompleteSpecs) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(1)).ok());
  EXPECT_FALSE(db.AddChainTable(MakeWalkerSpec(1)).ok());
  ChainTableSpec bad;
  bad.name = "BAD";
  EXPECT_FALSE(db.AddChainTable(std::move(bad)).ok());
}

TEST(MonteCarloChainTest, SamplesMarginalDistribution) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(1)).ok());
  auto samples = MonteCarloChain(
      db, 16, 400, 13, [](const DatabaseState& s) -> Result<double> {
        return s.at("WALKERS").row(0)[1].AsDouble();
      });
  ASSERT_TRUE(samples.ok());
  // Walker position after 16 steps: N(0, 16).
  EXPECT_NEAR(Mean(samples.value()), 0.0, 0.5);
  EXPECT_NEAR(Variance(samples.value()), 16.0, 3.0);
}

TEST(MonteCarloChainTest, ReplicationsIndependent) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(1)).ok());
  auto s = MonteCarloChain(db, 4, 50, 21,
                           [](const DatabaseState& st) -> Result<double> {
                             return st.at("WALKERS").row(0)[1].AsDouble();
                           });
  ASSERT_TRUE(s.ok());
  // Not all equal.
  EXPECT_GT(StdDev(s.value()), 0.1);
}


// ---------------------------------------------------------------------------
// Hostile snapshots: the table decoder checks every type byte, cell tag,
// column name and count before it builds anything, so a crafted snapshot
// comes back as a Status rather than an abort or a huge allocation.
// ---------------------------------------------------------------------------

/// A simsql snapshot at version 1 of a 3-step chain whose state holds one
/// table "T", written by `write_table`.
std::string CraftSnapshot(
    const std::function<void(ckpt::SectionWriter*)>& write_table) {
  ckpt::SnapshotWriter snap("simsql");
  ckpt::SectionWriter* c = snap.AddSection("cursor");
  c->PutU64(1);
  c->PutU64(3);
  c->PutRngState(Rng(5).state());
  ckpt::SectionWriter* st = snap.AddSection("state");
  st->PutU32(1);
  st->PutString("T");
  write_table(st);
  snap.AddSection("history")->PutU32(0);
  return snap.Finish();
}

void PutColumn(ckpt::SectionWriter* s, const std::string& name,
               uint8_t type) {
  s->PutString(name);
  s->PutU8(type);
}

constexpr uint8_t kInt64Tag = static_cast<uint8_t>(DataType::kInt64);
constexpr uint8_t kDoubleTag = static_cast<uint8_t>(DataType::kDouble);

TEST(ChainSnapshotTest, CraftedSnapshotsFailWithStatus) {
  MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(MakeWalkerSpec(2)).ok());
  ChainRunner runner(db, 3, 7, 0);

  // Control: a well-formed crafted snapshot restores.
  const std::string good = CraftSnapshot([](ckpt::SectionWriter* s) {
    s->PutU32(1);
    PutColumn(s, "a", kInt64Tag);
    s->PutU64(1);
    s->PutU8(kInt64Tag);
    s->PutI64(42);
  });
  ASSERT_TRUE(runner.Restore(good).ok());

  const std::pair<const char*, std::function<void(ckpt::SectionWriter*)>>
      kCases[] = {
          {"unknown column type",
           [](ckpt::SectionWriter* s) {
             s->PutU32(1);
             PutColumn(s, "a", 200);
             s->PutU64(0);
           }},
          {"cell tag disagrees with its column",
           [](ckpt::SectionWriter* s) {
             s->PutU32(1);
             PutColumn(s, "a", kInt64Tag);
             s->PutU64(1);
             s->PutU8(kDoubleTag);
             s->PutDouble(2.5);
           }},
          {"unknown cell tag",
           [](ckpt::SectionWriter* s) {
             s->PutU32(1);
             PutColumn(s, "a", kInt64Tag);
             s->PutU64(1);
             s->PutU8(77);
           }},
          {"duplicate column name",
           [](ckpt::SectionWriter* s) {
             s->PutU32(2);
             PutColumn(s, "a", kInt64Tag);
             PutColumn(s, "a", kDoubleTag);
             s->PutU64(0);
           }},
          {"column count past the payload",
           [](ckpt::SectionWriter* s) {
             s->PutU32(0xFFFFFFFFu);
             PutColumn(s, "a", kInt64Tag);
           }},
          {"row count past the payload",
           [](ckpt::SectionWriter* s) {
             s->PutU32(1);
             PutColumn(s, "a", kInt64Tag);
             s->PutU64(~uint64_t{0});
           }},
          {"rows without columns",
           [](ckpt::SectionWriter* s) {
             s->PutU32(0);
             s->PutU64(~uint64_t{0});
           }},
      };
  for (const auto& [what, write_table] : kCases) {
    const Status st = runner.Restore(CraftSnapshot(write_table));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  }
  // A failed restore leaves the runner where the last good one put it.
  EXPECT_EQ(runner.next_version(), 1u);
}

}  // namespace
}  // namespace mde::simsql
