#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/context.h"
#include "obs/http.h"
#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/mvcc.h"
#include "serve/server.h"
#include "simsql/simsql.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

using serve::Answer;
using serve::CacheKey;
using serve::McQuerySpec;
using serve::Request;
using serve::ResultCache;
using serve::Server;
using serve::SessionWorkload;
using serve::SnapshotRef;
using serve::VersionChain;
using simsql::DatabaseState;
using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Content fingerprint of a whole database state: bit-exact over every
/// numeric cell, so two reads agree iff they saw identical bits.
uint64_t StateChecksum(const DatabaseState& state) {
  uint64_t h = obs::FingerprintString("state");
  for (const auto& [name, t] : state) {
    h = obs::FingerprintMix(h, obs::FingerprintString(name));
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (const Value& v : t.row(r)) {
        const double d = v.AsDouble();
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        h = obs::FingerprintMix(h, bits);
      }
    }
  }
  return h;
}

DatabaseState MarkerState(uint64_t version) {
  Table t{Schema({{"V", DataType::kDouble}})};
  t.Append({Value(static_cast<double>(version) * 3.25 + 1.0)});
  DatabaseState state;
  state.emplace("MARK", std::move(t));
  return state;
}

/// A small asset-price random walk: chain table PRICES evolves per
/// version, deterministic POSITIONS holds quantities.
simsql::MarkovChainDb MakePriceDb(size_t assets = 4) {
  simsql::MarkovChainDb db;
  Table pos{
      Schema({{"ASSET", DataType::kInt64}, {"QTY", DataType::kDouble}})};
  for (size_t i = 0; i < assets; ++i) {
    pos.Append({Value(static_cast<int64_t>(i)),
                Value(1.0 + static_cast<double>(i))});
  }
  EXPECT_TRUE(db.AddDeterministic("POSITIONS", std::move(pos)).ok());

  simsql::ChainTableSpec spec;
  spec.name = "PRICES";
  spec.init = [assets](const DatabaseState&, Rng& rng) -> Result<Table> {
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < assets; ++i) {
      t.Append({Value(static_cast<int64_t>(i)),
                Value(100.0 + 10.0 * static_cast<double>(i) +
                      rng.NextDouble())});
    }
    return t;
  };
  spec.transition = [assets](const DatabaseState& prev, const DatabaseState&,
                             Rng& rng) -> Result<Table> {
    const Table& p = prev.at("PRICES");
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < assets; ++i) {
      t.Append({p.row(i)[0],
                Value(p.row(i)[1].AsDouble() + (rng.NextDouble() - 0.5))});
    }
    return t;
  };
  EXPECT_TRUE(db.AddChainTable(std::move(spec)).ok());
  return db;
}

/// Monte Carlo portfolio value: simulate each price `horizon` steps forward
/// at volatility `vol`, sum price x quantity. One eval = one replication.
McQuerySpec PortfolioValueQuery() {
  McQuerySpec spec;
  spec.name = "pv";
  spec.eval = [](const DatabaseState& state,
                 const std::map<std::string, double>& params,
                 Rng& rng) -> Result<double> {
    const double vol =
        params.count("vol") != 0 ? params.at("vol") : 1.0;
    const int horizon =
        params.count("horizon") != 0
            ? static_cast<int>(params.at("horizon"))
            : 4;
    const Table& prices = state.at("PRICES");
    const Table& pos = state.at("POSITIONS");
    double total = 0.0;
    for (size_t i = 0; i < prices.num_rows(); ++i) {
      double p = prices.row(i)[1].AsDouble();
      for (int h = 0; h < horizon; ++h) {
        p += (rng.NextDouble() - 0.5) * vol;
      }
      total += p * pos.row(i)[1].AsDouble();
    }
    return total;
  };
  return spec;
}

// ---------------------------------------------------------------------------
// MVCC version chain.
// ---------------------------------------------------------------------------

TEST(MvccTest, InstallPinReleaseReclaim) {
  VersionChain chain(/*min_retain=*/1);
  EXPECT_EQ(chain.head_version(), VersionChain::kNone);
  EXPECT_FALSE(chain.Pin(chain.head_version()).valid());
  EXPECT_FALSE(chain.Pin(0).valid());

  EXPECT_EQ(chain.Install(MarkerState(0)), 0u);
  EXPECT_EQ(chain.Install(MarkerState(1)), 1u);
  EXPECT_EQ(chain.head_version(), 1u);

  // v0 is retired and unpinned: the second install reclaimed it.
  EXPECT_EQ(chain.live_versions(), 1u);
  EXPECT_EQ(chain.reclaimed(), 1u);
  EXPECT_FALSE(chain.Pin(0).valid());

  // Pin the head; installs must not touch it while pinned.
  SnapshotRef pinned = chain.Pin(chain.head_version());
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.version(), 1u);
  const uint64_t sum_before = StateChecksum(pinned.state());
  EXPECT_EQ(chain.Install(MarkerState(2)), 2u);
  EXPECT_EQ(chain.Install(MarkerState(3)), 3u);
  EXPECT_EQ(StateChecksum(pinned.state()), sum_before)
      << "pinned state changed under concurrent installs";
  // v1 pinned, v2 unpinned+retired (reclaimed), v3 head.
  EXPECT_EQ(chain.live_versions(), 2u);
  ASSERT_TRUE(chain.Pin(1).valid());

  // Second pin on the same version; releasing one keeps it resident.
  SnapshotRef second = chain.Pin(1);
  second.Release();
  EXPECT_FALSE(second.valid());
  EXPECT_EQ(chain.Install(MarkerState(4)), 4u);
  EXPECT_TRUE(chain.Pin(1).valid()) << "still pinned by the first ref";

  // Releasing the last pin frees v1 at the next install.
  pinned.Release();
  chain.Install(MarkerState(5));
  EXPECT_FALSE(chain.Pin(1).valid());
  EXPECT_EQ(chain.live_versions(), 1u);
}

TEST(MvccTest, MoveTransfersThePin) {
  VersionChain chain(1);
  chain.Install(MarkerState(0));
  SnapshotRef a = chain.Pin(chain.head_version());
  SnapshotRef b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): spec'd empty
  ASSERT_TRUE(b.valid());
  chain.Install(MarkerState(1));
  chain.Install(MarkerState(2));
  EXPECT_TRUE(chain.Pin(0).valid()) << "moved-to ref must keep the pin";
  b.Release();
  chain.Install(MarkerState(3));
  EXPECT_FALSE(chain.Pin(0).valid());
}

/// The concurrency satellite: writers advance versions while readers pin,
/// re-read, and hold snapshots across installs. Run under TSan in CI. Every
/// read of a pinned version must be bit-identical, and versions with live
/// pins must never be reclaimed out from under a reader.
TEST(MvccTest, ConcurrentSnapshotHammer) {
  constexpr int kInstalls = 200;
  constexpr int kReaders = 6;
  VersionChain chain(/*min_retain=*/2);
  chain.Install(MarkerState(0));

  // Readers run a FIXED number of iterations (not gated on the writer
  // finishing — a fast writer must not turn this into a no-op test), so
  // pins and installs genuinely overlap for the whole run.
  constexpr int kReaderIters = 400;
  std::thread writer([&chain] {
    for (uint64_t v = 1; v <= kInstalls; ++v) {
      chain.Install(MarkerState(v));
    }
  });

  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&chain, &reads, r] {
      Rng rng(1234 + static_cast<uint64_t>(r));
      std::vector<std::pair<SnapshotRef, uint64_t>> held;  // ref, checksum
      for (int iter = 0; iter < kReaderIters; ++iter) {
        if (held.size() < 4 || rng.NextBounded(2) == 0) {
          SnapshotRef snap = chain.Pin(chain.head_version());
          if (snap.valid()) {
            const uint64_t version = snap.version();
            const uint64_t sum = StateChecksum(snap.state());
            // The marker state is a pure function of the version number:
            // any torn or stale read shows up as a checksum mismatch.
            ASSERT_EQ(sum, StateChecksum(MarkerState(version)));
            held.emplace_back(std::move(snap), sum);
          }
        } else {
          // Re-validate the OLDEST held snapshot (the one most installs
          // have happened past), then release it.
          auto& [snap, sum] = held.front();
          ASSERT_EQ(StateChecksum(snap.state()), sum)
              << "held snapshot v" << snap.version()
              << " changed while pinned";
          held.erase(held.begin());
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
      // Drain: every held snapshot must still read back identically.
      for (auto& [snap, sum] : held) {
        ASSERT_EQ(StateChecksum(snap.state()), sum);
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(reads.load(),
            static_cast<uint64_t>(kReaders) * kReaderIters);
  EXPECT_EQ(chain.head_version(), static_cast<uint64_t>(kInstalls));
  // All pins are gone: everything but the retained tail is reclaimable,
  // and one more install proves the chain still works.
  chain.Install(MarkerState(kInstalls + 1));
  EXPECT_LE(chain.live_versions(), 2u + 1u);
  EXPECT_GT(chain.reclaimed(), 0u);
}

// ---------------------------------------------------------------------------
// CLT-bounded result cache.
// ---------------------------------------------------------------------------

/// rep_fn whose value is a pure function of the index, which also records
/// every index it was asked for — the each-rep-exactly-once ledger.
struct CountingRepFn {
  std::vector<int> calls_per_index = std::vector<int>(4096, 0);
  double operator()(uint64_t rep) {
    ++calls_per_index[rep];
    Rng rng = Rng::Substream(/*seed=*/77, rep);
    return 10.0 + rng.NextDouble();
  }
};

TEST(ResultCacheTest, LooserIsAHitTighterSpendsOnlyIncrementalReps) {
  ResultCache cache;
  CountingRepFn fn;
  const ResultCache::RepFn rep_fn = [&fn](uint64_t rep) -> Result<double> {
    return fn(rep);
  };
  const CacheKey key{1, 2, 3};

  // Cold: no target pressure -> exactly min_reps run.
  auto first = cache.Fetch(key, /*target=*/kInf, /*min_reps=*/8,
                           /*max_reps=*/256, rep_fn);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().reps, 8u);
  EXPECT_EQ(first.value().reps_added, 8u);
  EXPECT_FALSE(first.value().pure_hit);
  EXPECT_TRUE(std::isfinite(first.value().half_width));

  // Same key, looser precision: pure hit, zero reps, same answer bits.
  auto looser = cache.Fetch(key, first.value().half_width * 4.0, 8, 256,
                            rep_fn);
  ASSERT_TRUE(looser.ok());
  EXPECT_TRUE(looser.value().pure_hit);
  EXPECT_EQ(looser.value().reps_added, 0u);
  EXPECT_EQ(std::memcmp(&looser.value().estimate, &first.value().estimate,
                        sizeof(double)),
            0);

  // Tighter: only the missing reps run, resuming at index 8.
  const double tight = first.value().half_width / 3.0;
  auto tighter = cache.Fetch(key, tight, 8, 4096, rep_fn);
  ASSERT_TRUE(tighter.ok());
  EXPECT_FALSE(tighter.value().pure_hit);
  EXPECT_GT(tighter.value().reps, 8u);
  EXPECT_EQ(tighter.value().reps_added, tighter.value().reps - 8u);
  EXPECT_LE(tighter.value().half_width, tight);

  // Bit-identity: a fresh sequential RunningStat over reps 0..n-1
  // reproduces the cached accumulator exactly.
  RunningStat fresh;
  CountingRepFn replay;
  for (uint64_t i = 0; i < tighter.value().reps; ++i) fresh.Add(replay(i));
  const double fresh_mean = fresh.state().mean;
  EXPECT_EQ(std::memcmp(&tighter.value().estimate, &fresh_mean,
                        sizeof(double)),
            0)
      << "cache-assembled estimate differs from a single sequential run";

  // Each-rep-exactly-once, process-wide.
  for (uint64_t i = 0; i < tighter.value().reps; ++i) {
    EXPECT_EQ(fn.calls_per_index[i], 1) << "rep " << i;
  }

  const serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.pure_hits, 1u);
  EXPECT_EQ(stats.topups, 1u);
  EXPECT_EQ(stats.reps_run, tighter.value().reps);
}

TEST(ResultCacheTest, TinyNNeverClaimsPrecision) {
  // min_reps below 2 is clamped: an n=1 "answer" would have an infinite
  // CLT half-width and must not satisfy any finite target.
  ResultCache cache;
  uint64_t runs = 0;
  const ResultCache::RepFn rep_fn = [&runs](uint64_t) -> Result<double> {
    ++runs;
    return 5.0;
  };
  auto r = cache.Fetch(CacheKey{9, 9, 9}, /*target=*/kInf, /*min_reps=*/0,
                       /*max_reps=*/256, rep_fn);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.value().reps, 2u);
}

TEST(ResultCacheTest, NanHalfWidthStopsTheTopUp) {
  // A NaN draw makes the half-width NaN, which never exceeds a target: the
  // top-up stops at min_reps instead of running to max_reps, and a repeat
  // request is a pure hit on that answer.
  ResultCache cache;
  uint64_t runs = 0;
  const ResultCache::RepFn rep_fn = [&runs](uint64_t rep) -> Result<double> {
    ++runs;
    return rep == 1 ? std::numeric_limits<double>::quiet_NaN() : 1.0;
  };
  const CacheKey key{3, 1, 4};
  auto first = cache.Fetch(key, /*target=*/1e-9, 4, 256, rep_fn);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().reps, 4u);
  EXPECT_TRUE(std::isnan(first.value().half_width));
  auto again = cache.Fetch(key, 1e-9, 4, 256, rep_fn);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().pure_hit);
  EXPECT_EQ(again.value().reps, 4u);
  EXPECT_EQ(runs, 4u);
}

TEST(ResultCacheTest, RepErrorPropagatesAndKeepsEarlierReps) {
  ResultCache cache;
  std::atomic<bool> fail_at_5{true};
  uint64_t runs = 0;
  const ResultCache::RepFn rep_fn =
      [&fail_at_5, &runs](uint64_t rep) -> Result<double> {
    if (fail_at_5.load() && rep == 5) {
      return Status::Internal("transient rep failure");
    }
    ++runs;
    return static_cast<double>(rep);
  };
  const CacheKey key{4, 5, 6};
  auto broken = cache.Fetch(key, kInf, 8, 256, rep_fn);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(runs, 5u);

  // Retry after the fault clears: resumes at rep 5, reps 0..4 not re-run.
  fail_at_5.store(false);
  auto fixed = cache.Fetch(key, kInf, 8, 256, rep_fn);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value().reps, 8u);
  EXPECT_EQ(fixed.value().reps_added, 3u);
  EXPECT_EQ(runs, 8u);
}

TEST(ResultCacheTest, StaleEntriesEvictUnderByteBudget) {
  ResultCache::Options opts;
  opts.max_bytes = 2 * ResultCache::kEntryBytes;  // budget: 2 entries
  ResultCache cache(opts);
  const ResultCache::RepFn rep_fn = [](uint64_t rep) -> Result<double> {
    return static_cast<double>(rep);
  };
  ASSERT_TRUE(cache.Fetch(CacheKey{1, 0, 0}, kInf, 2, 8, rep_fn).ok());
  ASSERT_TRUE(cache.Fetch(CacheKey{2, 0, 0}, kInf, 2, 8, rep_fn).ok());
  // Same epoch: nothing is stale, the budget may be transiently exceeded
  // rather than evicting what was just inserted.
  ASSERT_TRUE(cache.Fetch(CacheKey{3, 0, 0}, kInf, 2, 8, rep_fn).ok());
  EXPECT_EQ(cache.stats().evictions, 0u);

  // One epoch later the older keys are fair game.
  cache.AdvanceEpoch();
  ASSERT_TRUE(cache.Fetch(CacheKey{4, 0, 0}, kInf, 2, 8, rep_fn).ok());
  const serve::CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 2u);
  EXPECT_LE(stats.bytes, opts.max_bytes);
}

TEST(ResultCacheTest, EvictionSkipsAVictimTouchedAfterTheScan) {
  // Budget: 128 entries, keys 1..128 touched one epoch apart. Inserting
  // key 129 scans once, queues the two stalest (keys 1 and 2) and evicts
  // key 1. A hit on key 2 makes it current, so the next insert skips it
  // and evicts key 3, the stalest left.
  constexpr uint64_t kBudget = 128;
  ResultCache::Options opts;
  opts.max_bytes = kBudget * ResultCache::kEntryBytes;
  ResultCache cache(opts);
  const ResultCache::RepFn rep_fn = [](uint64_t rep) -> Result<double> {
    return static_cast<double>(rep);
  };
  const auto fetch = [&](uint64_t k) {
    auto r = cache.Fetch(CacheKey{k, 0, 0}, kInf, 2, 8, rep_fn);
    EXPECT_TRUE(r.ok());
    return r.ok() ? r.value() : ResultCache::FetchResult();
  };
  for (uint64_t k = 1; k <= kBudget; ++k) {
    fetch(k);
    cache.AdvanceEpoch();
  }
  fetch(kBudget + 1);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(fetch(2).pure_hit);
  fetch(kBudget + 2);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_TRUE(fetch(2).pure_hit) << "evicted an entry touched this epoch";
  EXPECT_FALSE(fetch(3).pure_hit) << "key 3 was the stalest left";
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

TEST(ResultCacheTest, HitNeverWaitsBehindATopUpOfTheSameKey) {
  ResultCache cache;
  const auto value = [](uint64_t rep) {
    Rng rng = Rng::Substream(/*seed=*/31, rep);
    return 3.0 + rng.NextDouble();
  };
  const CacheKey key{7, 7, 7};
  ASSERT_TRUE(cache
                  .Fetch(key, kInf, 8, 256,
                         [&](uint64_t rep) -> Result<double> {
                           return value(rep);
                         })
                  .ok());

  // A tight request tops up and stalls inside replication 20, holding the
  // entry mutex.
  std::latch stalled(1);
  std::latch release(1);
  std::thread topper([&] {
    auto r = cache.Fetch(key, /*target=*/0.0, 8, /*max_reps=*/40,
                         [&](uint64_t rep) -> Result<double> {
                           if (rep == 20) {
                             stalled.count_down();
                             release.wait();
                           }
                           return value(rep);
                         });
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().reps, 40u);
  });
  stalled.wait();

  // A looser request on the same key answers from the published partial
  // top-up without queuing on the entry mutex.
  std::atomic<int> runs{0};
  auto loose = std::async(std::launch::async, [&] {
    return cache.Fetch(key, kInf, 8, 256, [&](uint64_t) -> Result<double> {
      runs.fetch_add(1);
      return 0.0;
    });
  });
  const bool answered_at_once =
      loose.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release.count_down();
  topper.join();
  ASSERT_TRUE(answered_at_once) << "the hit waited behind the top-up";
  const auto hit = loose.get();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().pure_hit);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(hit.value().reps, 20u);

  RunningStat fresh;
  for (uint64_t i = 0; i < hit.value().reps; ++i) fresh.Add(value(i));
  EXPECT_EQ(Bits(hit.value().estimate), Bits(fresh.mean()));
  EXPECT_EQ(Bits(hit.value().half_width), Bits(fresh.half_width()));
}

TEST(ResultCacheTest, ProcessCountersSumOverEveryCache) {
  const auto counter = [](const std::string& name) -> uint64_t {
    for (const auto& m : obs::Registry::Global().Snapshot()) {
      if (m.name == name) {
        EXPECT_EQ(m.kind, obs::MetricSnapshot::Kind::kCounter) << name;
        return static_cast<uint64_t>(m.value);
      }
    }
    return 0;
  };
  const uint64_t hits_before = counter("serve.cache.pure_hits");
  const uint64_t saved_before = counter("serve.cache.reps_saved");
  const ResultCache::RepFn rep_fn = [](uint64_t rep) -> Result<double> {
    return static_cast<double>(rep % 5);
  };
  ResultCache a;
  ResultCache b;
  for (uint64_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(a.Fetch(CacheKey{k, 0, 0}, kInf, 8, 64, rep_fn).ok());
    ASSERT_TRUE(a.Fetch(CacheKey{k, 0, 0}, kInf, 8, 64, rep_fn).ok());
  }
  ASSERT_TRUE(b.Fetch(CacheKey{0, 0, 0}, kInf, 4, 64, rep_fn).ok());
  ASSERT_TRUE(b.Fetch(CacheKey{0, 0, 0}, 0.0, 4, 16, rep_fn).ok());
  ASSERT_TRUE(b.Fetch(CacheKey{0, 0, 0}, kInf, 4, 64, rep_fn).ok());

  const serve::CacheStats sa = a.stats();
  const serve::CacheStats sb = b.stats();
  EXPECT_EQ(sa.pure_hits, 3u);
  EXPECT_EQ(sb.pure_hits, 1u);
  EXPECT_EQ(counter("serve.cache.pure_hits") - hits_before,
            sa.pure_hits + sb.pure_hits);
  EXPECT_EQ(counter("serve.cache.reps_saved") - saved_before,
            sa.reps_saved + sb.reps_saved);
}

TEST(ResultCacheTest, MemoNeverAnswersForARecycledEntry) {
  // One-entry budget: after an epoch, inserting key B evicts key A and
  // reuses A's entry. B's answer would satisfy A's request, so only A's
  // memo slot generation check stands between A and B's answer.
  ResultCache::Options opts;
  opts.max_bytes = ResultCache::kEntryBytes;
  ResultCache cache(opts);
  const auto rep_fn_around = [](double base) {
    return ResultCache::RepFn([base](uint64_t rep) -> Result<double> {
      Rng rng = Rng::Substream(/*seed=*/5, rep);
      return base + rng.NextDouble();
    });
  };
  const CacheKey a{1, 0, 0};
  const CacheKey b{2, 0, 0};
  ASSERT_TRUE(cache.Fetch(a, kInf, 8, 8, rep_fn_around(100.0)).ok());
  // The first hit memoizes A on this thread (index hit); the second is
  // answered from the memo.
  for (int i = 0; i < 2; ++i) {
    auto hit = cache.Fetch(a, kInf, 8, 8, rep_fn_around(100.0));
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.value().pure_hit);
  }

  cache.AdvanceEpoch();
  auto rb = cache.Fetch(b, kInf, 8, 8, rep_fn_around(200.0));
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(rb.value().reps_added, 8u);
  serve::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.slab_entries, 1u) << "B did not reuse A's entry";

  auto ra = cache.Fetch(a, kInf, 8, 8, rep_fn_around(100.0));
  ASSERT_TRUE(ra.ok());
  EXPECT_FALSE(ra.value().pure_hit);
  EXPECT_GT(ra.value().reps_added, 0u);
  EXPECT_LT(ra.value().estimate, 150.0) << "answered with B's draws";
}

TEST(ResultCacheTest, MemoIsScopedToOneCacheInstance) {
  // A second cache built at the first one's address must not answer from a
  // memo slot the first one filled: that slot names a freed entry.
  const ResultCache::RepFn rep_fn = [](uint64_t rep) -> Result<double> {
    return static_cast<double>(rep);
  };
  const CacheKey key{4, 2, 0};
  alignas(ResultCache) unsigned char storage[sizeof(ResultCache)];
  ResultCache* first = new (storage) ResultCache();
  ASSERT_TRUE(first->Fetch(key, kInf, 8, 8, rep_fn).ok());
  auto memoized = first->Fetch(key, kInf, 8, 8, rep_fn);
  ASSERT_TRUE(memoized.ok());
  ASSERT_TRUE(memoized.value().pure_hit);
  first->~ResultCache();

  ResultCache* second = new (storage) ResultCache();
  auto r = second->Fetch(key, kInf, 8, 8, rep_fn);
  const serve::CacheStats stats = second->stats();
  second->~ResultCache();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().pure_hit);
  EXPECT_EQ(r.value().reps_added, 8u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, EvictWhileMemoizedHammer) {
  // Readers repeat a few keys, so most of their requests are memo hits,
  // while a writer advances the epoch and inserts a fresh key each time
  // under a 4-entry budget: memoized entries are evicted and recycled for
  // other keys under the readers. Every key draws from a band of its own,
  // and every answer must be bit-identical to a fresh run of its key, so
  // an answer read through an entry that now holds another key fails.
  // Run under TSan in CI.
  ResultCache::Options opts;
  opts.max_bytes = 4 * ResultCache::kEntryBytes;
  ResultCache cache(opts);
  constexpr uint64_t kReps = 8;
  constexpr uint64_t kReaderKeys = 6;
  constexpr int kReaders = 3;
  constexpr uint64_t kWriterKeys = 3000;
  const auto value = [](uint64_t k, uint64_t rep) {
    Rng rng = Rng::Substream(/*seed=*/1000 + k, rep);
    return 100.0 * static_cast<double>(k) + rng.NextDouble();
  };
  const auto fresh_mean = [&value](uint64_t k) {
    RunningStat s;
    for (uint64_t i = 0; i < kReps; ++i) s.Add(value(k, i));
    return Bits(s.mean());
  };
  const auto fetch = [&](uint64_t k) {
    return cache.Fetch(CacheKey{k, 0, 0}, kInf, kReps, kReps,
                       [&value, k](uint64_t rep) -> Result<double> {
                         return value(k, rep);
                       });
  };
  std::vector<uint64_t> want(kReaderKeys);
  for (uint64_t k = 0; k < kReaderKeys; ++k) want[k] = fresh_mean(k);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        for (uint64_t k = 0; k < kReaderKeys; ++k) {
          auto a = fetch(k);
          if (!a.ok() || a.value().reps != kReps ||
              Bits(a.value().estimate) != want[k]) {
            failures.fetch_add(1);
            return;
          }
          if (a.value().pure_hit) hits.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t w = 0; w < kWriterKeys && failures.load() == 0; ++w) {
    cache.AdvanceEpoch();
    const uint64_t k = kReaderKeys + w;
    auto a = fetch(k);
    if (!a.ok() || Bits(a.value().estimate) != fresh_mean(k)) {
      failures.fetch_add(1);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hits.load(), 0u);
  const serve::CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  // A new entry is made only when none is free. The index then holds at
  // most the reader keys plus the writer's current one (older ones are
  // evictable), and each other thread holds at most one evicted entry.
  EXPECT_LE(stats.slab_entries, kReaderKeys + 1 + kReaders + 1);
}

// ---------------------------------------------------------------------------
// Server + sessions end to end.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, CachedAnswerBitIdenticalToFreshSingleSessionRun) {
  // Server A answers via cache assembly: a loose request seeds 8 reps,
  // a tight request tops up to exactly 40 (target 0 is unreachable, so it
  // runs to max_reps).
  simsql::MarkovChainDb db_a = MakePriceDb();
  Server::Options opts;
  opts.seed = 2024;
  opts.min_reps = 8;
  Server a(db_a, opts);
  ASSERT_TRUE(a.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(a.Start().ok());

  Request loose;
  loose.query = "pv";
  loose.params = {{"vol", 2.0}, {"horizon", 3.0}};
  loose.target_half_width = kInf;
  loose.max_reps = 40;
  auto s1 = a.OpenSession("loose-first");
  auto r1 = s1->Execute(loose);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().reps, 8u);

  Request tight = loose;
  tight.target_half_width = 0.0;
  auto s2 = a.OpenSession("tight-later");
  auto r2 = s2->Execute(tight);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().reps, 40u);
  EXPECT_EQ(r2.value().reps_added, 32u);
  EXPECT_FALSE(r2.value().cache_hit);

  // Server B: identical chain + seed, one fresh session running all 40
  // reps itself. The assembled answer must match bitwise.
  simsql::MarkovChainDb db_b = MakePriceDb();
  Server b(db_b, opts);
  ASSERT_TRUE(b.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(b.Start().ok());
  auto r3 = b.OpenSession("fresh-one-shot")->Execute(tight);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().reps, 40u);
  EXPECT_EQ(r3.value().reps_added, 40u);
  EXPECT_EQ(std::memcmp(&r2.value().estimate, &r3.value().estimate,
                        sizeof(double)),
            0)
      << "cache-assembled " << r2.value().estimate << " vs fresh "
      << r3.value().estimate;
  EXPECT_EQ(std::memcmp(&r2.value().half_width, &r3.value().half_width,
                        sizeof(double)),
            0);

  // Third session on A: pure hit with the same bits.
  auto r4 = a.OpenSession("hit")->Execute(tight);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4.value().cache_hit);
  EXPECT_EQ(std::memcmp(&r4.value().estimate, &r3.value().estimate,
                        sizeof(double)),
            0);
}

TEST(ServeServerTest, VersionsIsolateAnswersAndPinnedReadsSurviveAdvance) {
  simsql::MarkovChainDb db = MakePriceDb();
  Server::Options opts;
  opts.min_retain_versions = 8;  // keep v0 resident for the pinned read
  Server server(db, opts);
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.head_version(), 0u);
  EXPECT_FALSE(server.Start().ok()) << "double Start must fail";

  auto session = server.OpenSession("versions");
  Request req;
  req.query = "pv";
  req.target_half_width = kInf;
  auto at_v0 = session->Execute(req);
  ASSERT_TRUE(at_v0.ok());
  EXPECT_EQ(at_v0.value().version, 0u);

  ASSERT_TRUE(server.AdvanceVersion().ok());
  EXPECT_EQ(server.head_version(), 1u);

  // Head request now keys a different version: a miss, different answer.
  auto at_v1 = session->Execute(req);
  ASSERT_TRUE(at_v1.ok());
  EXPECT_EQ(at_v1.value().version, 1u);
  EXPECT_FALSE(at_v1.value().cache_hit);

  // Explicit old-version request: pure hit, bit-identical to the first.
  Request pinned = req;
  pinned.version = 0;
  auto again_v0 = session->Execute(pinned);
  ASSERT_TRUE(again_v0.ok());
  EXPECT_TRUE(again_v0.value().cache_hit);
  EXPECT_EQ(std::memcmp(&again_v0.value().estimate, &at_v0.value().estimate,
                        sizeof(double)),
            0);

  // Unknown query and never-installed version fail cleanly.
  Request bogus = req;
  bogus.query = "nope";
  EXPECT_FALSE(session->Execute(bogus).ok());
  Request future = req;
  future.version = 99;
  EXPECT_FALSE(session->Execute(future).ok());
}

TEST(ServeServerTest, ConcurrentSessionsHitRateAndPrecisionContract) {
  simsql::MarkovChainDb db = MakePriceDb();
  Server::Options opts;
  opts.seed = 7;
  opts.min_reps = 8;
  Server server(db, opts);
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());

  // 8 sessions x 30 requests over 5 shared request shapes: after each
  // shape's first (per-precision-tier) touch, everything is a pure hit.
  constexpr int kSessions = 8;
  constexpr int kRequestsPerSession = 30;
  std::vector<Request> shapes;
  for (int s = 0; s < 5; ++s) {
    Request r;
    r.query = "pv";
    r.params = {{"vol", 1.0 + s}, {"horizon", 3.0}};
    r.target_half_width = 4.0;  // reachable at a few dozen reps
    r.max_reps = 2048;
    shapes.push_back(r);
  }
  std::vector<SessionWorkload> workloads(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    workloads[s].tag = "client-" + std::to_string(s);
    Rng rng(900 + static_cast<uint64_t>(s));
    for (int q = 0; q < kRequestsPerSession; ++q) {
      workloads[s].requests.push_back(
          shapes[rng.NextBounded(shapes.size())]);
    }
  }

  ThreadPool pool(kSessions);
  auto results = serve::ServeLoop(server, workloads, &pool);
  ASSERT_TRUE(results.ok());

  uint64_t hits = 0;
  uint64_t total = 0;
  // Cross-session consistency: same request shape (vol parameter) at the
  // same version must produce bitwise-identical estimates everywhere.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> canonical_bits;
  for (size_t s = 0; s < results.value().size(); ++s) {
    const auto& session_answers = results.value()[s];
    ASSERT_EQ(session_answers.size(), workloads[s].requests.size());
    for (size_t q = 0; q < session_answers.size(); ++q) {
      const Answer& answer = session_answers[q];
      ++total;
      hits += answer.cache_hit ? 1 : 0;
      // Precision contract: every answer satisfies the requested bound
      // (max_reps was sized so the target is always reachable).
      ASSERT_LE(answer.half_width, 4.0);
      ASSERT_GE(answer.reps, opts.min_reps);
      const double vol = workloads[s].requests[q].params.at("vol");
      uint64_t vol_bits = 0;
      std::memcpy(&vol_bits, &vol, sizeof(vol_bits));
      uint64_t est_bits = 0;
      std::memcpy(&est_bits, &answer.estimate, sizeof(est_bits));
      const auto key = std::make_pair(vol_bits, answer.version);
      const auto [it, inserted] = canonical_bits.emplace(key, est_bits);
      ASSERT_EQ(it->second, est_bits)
          << "session " << s << " got a different answer for vol=" << vol;
      (void)inserted;
    }
  }
  EXPECT_EQ(total,
            static_cast<uint64_t>(kSessions * kRequestsPerSession));
  // >= 0.9 hit rate: at most 5 shapes miss once each; 5/240 misses.
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.9)
      << hits << "/" << total;

  // ServeLoop sessions close with their workloads; an open session shows
  // up on /sessionz with its counters, alongside the shared cache line.
  auto inspector = server.OpenSession("inspector");
  ASSERT_TRUE(inspector->Execute(shapes[0]).ok());
  const std::string sessionz = server.RenderSessionz();
  EXPECT_NE(sessionz.find("inspector"), std::string::npos) << sessionz;
  EXPECT_NE(sessionz.find("cache:"), std::string::npos);
  EXPECT_NE(sessionz.find("head_version: 0"), std::string::npos);
}

/// Minimal loopback GET; returns the body, status via *status_out.
std::string HttpGet(int port, const std::string& target, int* status_out) {
  *status_out = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), 0) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return "";
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.compare(0, 5, "HTTP/") != 0) return "";
  *status_out = std::atoi(raw.c_str() + 9);
  const size_t hdr_end = raw.find("\r\n\r\n");
  return hdr_end == std::string::npos ? "" : raw.substr(hdr_end + 4);
}

TEST(ServeServerTest, SessionzServedOverDiagServerWhileServerLives) {
  obs::DiagServer diag;
  ASSERT_TRUE(diag.Start(0));

  int status = 0;
  {
    simsql::MarkovChainDb db = MakePriceDb();
    Server server(db, Server::Options{});
    ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
    ASSERT_TRUE(server.Start().ok());
    auto session = server.OpenSession("web-client");
    Request req;
    req.query = "pv";
    req.target_half_width = kInf;
    ASSERT_TRUE(session->Execute(req).ok());

    const std::string body = HttpGet(diag.port(), "/sessionz", &status);
    EXPECT_EQ(status, 200);
    EXPECT_NE(body.find("web-client"), std::string::npos) << body;
    EXPECT_NE(body.find("head_version: 0"), std::string::npos);
    const std::string index = HttpGet(diag.port(), "/", &status);
    EXPECT_NE(index.find("/sessionz"), std::string::npos)
        << "index must advertise the registered page";
  }
  // Server gone: its handler unregistered with it.
  HttpGet(diag.port(), "/sessionz", &status);
  EXPECT_EQ(status, 404);
  diag.Stop();
}

TEST(ServeServerTest, ClosedSessionsArePrunedFromTheRegistry) {
  // A long-lived server that opens and drops sessions must not keep one
  // registry entry per session ever opened.
  simsql::MarkovChainDb db = MakePriceDb();
  Server server(db, Server::Options{});
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::shared_ptr<serve::Session>> live;
  for (int i = 0; i < 3; ++i) {
    live.push_back(server.OpenSession("live-" + std::to_string(i)));
  }
  size_t registry_peak = 0;
  for (int i = 0; i < 10000; ++i) {
    server.OpenSession("dropped-" + std::to_string(i));  // closes at once
    registry_peak = std::max(registry_peak, server.session_registry_size());
  }
  EXPECT_LE(registry_peak, 64u);

  const std::string sessionz = server.RenderSessionz();
  EXPECT_EQ(sessionz.find("dropped-"), std::string::npos) << sessionz;
  size_t listed = 0;
  for (size_t at = sessionz.find("tag="); at != std::string::npos;
       at = sessionz.find("tag=", at + 1)) {
    ++listed;
  }
  EXPECT_EQ(listed, live.size()) << sessionz;
  for (const auto& s : live) {
    EXPECT_NE(sessionz.find("tag=" + s->tag()), std::string::npos);
  }
}

TEST(ServeServerTest, HammerReadersWhileWriterAdvances) {
  // Sessions execute continuously (mixed head + pinned-v0 requests) while
  // the writer advances the chain; run under TSan in CI. Pinned v0
  // answers must stay bit-identical throughout.
  simsql::MarkovChainDb db = MakePriceDb();
  Server::Options opts;
  opts.min_retain_versions = 64;  // v0 stays resident for the whole test
  Server server(db, opts);
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());

  Request v0_req;
  v0_req.query = "pv";
  v0_req.target_half_width = kInf;
  v0_req.version = 0;
  auto baseline = server.OpenSession("baseline")->Execute(v0_req);
  ASSERT_TRUE(baseline.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &stop, &failures, &baseline, &v0_req,
                          c] {
      auto session = server.OpenSession("hammer-" + std::to_string(c));
      while (!stop.load(std::memory_order_acquire)) {
        auto pinned = session->Execute(v0_req);
        if (!pinned.ok() ||
            std::memcmp(&pinned.value().estimate,
                        &baseline.value().estimate, sizeof(double)) != 0) {
          failures.fetch_add(1);
          return;
        }
        Request head;
        head.query = "pv";
        head.target_half_width = kInf;
        if (!session->Execute(head).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int v = 0; v < 30; ++v) {
    ASSERT_TRUE(server.AdvanceVersion().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.head_version(), 30u);
}

TEST(ServeServerTest, AddQueryAfterStartFails) {
  simsql::MarkovChainDb db = MakePriceDb();
  Server server(db, Server::Options());
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());
  // Sessions read the query registry without a lock once serving starts.
  McQuerySpec late = PortfolioValueQuery();
  late.name = "late";
  const Status st = server.AddQuery(late);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  Request req;
  req.query = "late";
  req.target_half_width = kInf;
  EXPECT_EQ(server.OpenSession("late")->Execute(req).status().code(),
            StatusCode::kNotFound);
}

TEST(ServeServerTest, HammerLooseAndTightWhileWriterReclaims) {
  // Four sessions mix loose and tight targets on two shapes while a writer
  // advances every few requests. With min_retain_versions = 1 a head
  // request's version can be reclaimed between its head lookup and its
  // first replication's pin, which sends it back to the new head. Run
  // under TSan in CI.
  simsql::MarkovChainDb db = MakePriceDb();
  Server::Options opts;
  opts.seed = 99;
  opts.min_reps = 8;
  opts.min_retain_versions = 1;
  Server server(db, opts);
  ASSERT_TRUE(server.AddQuery(PortfolioValueQuery()).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kSessions = 4;
  constexpr int kRequests = 100;  // per session, at least
  constexpr int kAdvances = 60;   // one per 5 answered requests
  constexpr uint64_t kMaxReps = 128;
  const double targets[] = {kInf, 2.0, 1.0};
  struct Seen {
    double vol;
    double target;
    Answer answer;
  };
  std::vector<std::vector<Seen>> seen(kSessions);
  std::atomic<int> done_requests{0};
  std::atomic<bool> writer_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      auto session = server.OpenSession("mix-" + std::to_string(c));
      Rng rng(500 + static_cast<uint64_t>(c));
      // Sessions keep asking until the writer is done, so every advance
      // overlaps with reads however the threads are scheduled.
      for (int q = 0; q < kRequests || !writer_done.load(); ++q) {
        Request req;
        req.query = "pv";
        req.params = {{"vol", 1.0 + static_cast<double>(rng.NextBounded(2))},
                      {"horizon", 3.0}};
        req.target_half_width = targets[rng.NextBounded(3)];
        req.max_reps = kMaxReps;
        auto r = session->Execute(req);
        if (!r.ok()) {
          ADD_FAILURE() << r.status().ToString();
          failures.fetch_add(1);
          break;
        }
        seen[c].push_back({req.params.at("vol"), req.target_half_width,
                           r.value()});
        done_requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int v = 1; v <= kAdvances && failures.load() == 0; ++v) {
    while (done_requests.load(std::memory_order_relaxed) < 5 * v &&
           failures.load() == 0) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(server.AdvanceVersion().ok());
  }
  writer_done.store(true);
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(server.head_version(), static_cast<uint64_t>(kAdvances));

  uint64_t requests = 0;
  uint64_t reps_added = 0;
  std::map<std::tuple<uint64_t, uint64_t, uint64_t>,
           std::pair<uint64_t, uint64_t>>
      canonical;  // (vol, version, reps) -> (estimate, half-width) bits
  for (const auto& per_session : seen) {
    for (const Seen& s : per_session) {
      ++requests;
      reps_added += s.answer.reps_added;
      EXPECT_GE(s.answer.reps, opts.min_reps);
      EXPECT_TRUE(s.answer.half_width <= s.target ||
                  s.answer.reps >= kMaxReps)
          << "half-width " << s.answer.half_width << " > " << s.target;
      const auto bits =
          std::make_pair(Bits(s.answer.estimate), Bits(s.answer.half_width));
      const auto [it, inserted] = canonical.emplace(
          std::make_tuple(Bits(s.vol), s.answer.version, s.answer.reps),
          bits);
      if (!inserted) {
        EXPECT_EQ(it->second, bits) << "two answers for one (key, reps)";
      }
    }
  }
  EXPECT_GE(requests, static_cast<uint64_t>(kSessions * kRequests));
  const serve::CacheStats stats = server.cache().stats();
  EXPECT_EQ(stats.pure_hits + stats.topups + stats.misses, requests);
  EXPECT_EQ(stats.reps_run, reps_added);
}

}  // namespace
}  // namespace mde
