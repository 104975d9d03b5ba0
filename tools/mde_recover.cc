// mde_recover: checkpoint -> kill -> restore -> verify, from the CLI.
//
//   mde_recover [--engine dsgd|mc|simsql|pf|wildfire|all]
//               [--fault-frac F] [--threads N] [--mode manual|inject|both]
//
// For each selected engine the tool runs a small fixed problem three ways:
//
//   reference  uninterrupted run to completion
//   manual     run to step k = ceil(F * total), Save(), destroy the engine,
//              construct a fresh one, Restore(), finish
//   inject     configure the global FaultInjector to fire at the engine's
//              fault point on hit k and drive the run with RunWithRecovery
//
// and then compares the *final snapshots* byte for byte. Because snapshots
// capture the complete working state (RNG substream positions, cursors,
// accumulators, doubles as IEEE-754 bits), byte equality is exactly the
// bit-identical-recovery guarantee. Exit codes: 0 all verified, 1 bad usage
// or mismatch, 2 an engine failed outright.

#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/fault.h"
#include "ckpt/recovery.h"
#include "obs/http.h"
#include "dsgd/dsgd.h"
#include "dsgd/matrix_completion.h"
#include "simd/simd.h"
#include "simsql/simsql.h"
#include "smc/particle_filter.h"
#include "table/table.h"
#include "util/distributions.h"
#include "util/thread_pool.h"
#include "wildfire/assimilate.h"
#include "wildfire/fire.h"

namespace {

using mde::Result;
using mde::Rng;
using mde::Status;
using mde::ThreadPool;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--engine dsgd|mc|simsql|pf|wildfire|all] [--fault-frac F]"
               " [--threads N] [--mode manual|inject|both]"
               " [--ckpt-tier scalar|avx2|avx512]\n"
               "  --ckpt-tier runs the pre-kill half of the manual mode "
               "under the given\n  SIMD tier and the restore+finish under "
               "the session tier, verifying that\n  checkpoints written on "
               "one kernel tier restore bit-identically on another.\n";
  return 1;
}

/// One engine's fixed verification problem: fresh engines over shared
/// immutable inputs, plus the step count and fault-point name.
struct Harness {
  std::string name;
  std::string fault_point;
  size_t total_steps = 0;
  std::function<std::unique_ptr<mde::ckpt::Checkpointable>()> make;
};

/// Linear-Gaussian state-space model for the particle-filter harness.
class ArModel : public mde::smc::StateSpaceModel {
 public:
  mde::smc::State SampleInitial(const mde::smc::Observation&,
                                Rng& rng) const override {
    return {mde::SampleNormal(rng, 0.0, 1.0)};
  }
  mde::smc::State SampleProposal(const mde::smc::Observation&,
                                 const mde::smc::State& x_prev,
                                 Rng& rng) const override {
    return {0.9 * x_prev[0] + mde::SampleNormal(rng, 0.0, 0.5)};
  }
  double LogObservation(const mde::smc::Observation& y,
                        const mde::smc::State& x) const override {
    return mde::NormalLogPdf(y[0], x[0], 0.4);
  }
};

/// Shared problem data; must outlive the engines the factories create.
struct Problems {
  explicit Problems(size_t threads) : pool(threads) {
    // dsgd: small conflict-free tridiagonal system.
    {
      const size_t n = 64;
      mde::linalg::Tridiagonal a;
      a.lower.assign(n - 1, 1.0);
      a.diag.assign(n, 4.0);
      a.upper.assign(n - 1, 1.0);
      mde::linalg::Vector b(n, 1.0);
      rows = mde::dsgd::RowsFromTridiagonal(a, b);
      strata = mde::dsgd::TridiagonalStrata(rows.size());
      dsgd_options.rounds = 30;
      dsgd_options.sgd.trace_every = 5;
    }
    // mc: synthetic low-rank ratings.
    {
      ratings = mde::dsgd::SyntheticRatings(40, 30, 3, 0.3, 0.1, 9);
      mc_options.rank = 4;
      mc_options.epochs = 6;
      mc_options.blocks = 3;
    }
    // simsql: a database-valued random walk.
    {
      mde::simsql::ChainTableSpec spec;
      spec.name = "WALKERS";
      spec.init = [](const mde::simsql::DatabaseState&,
                     Rng&) -> Result<mde::table::Table> {
        mde::table::Table t{mde::table::Schema(
            {{"id", mde::table::DataType::kInt64},
             {"pos", mde::table::DataType::kDouble}})};
        for (int64_t i = 0; i < 8; ++i) t.Append({i, 0.0});
        return t;
      };
      spec.transition = [](const mde::simsql::DatabaseState& prev,
                           const mde::simsql::DatabaseState&,
                           Rng& rng) -> Result<mde::table::Table> {
        const mde::table::Table& old = prev.at("WALKERS");
        mde::table::Table t(old.schema());
        for (const mde::table::Row& r : old.rows()) {
          t.Append({r[0], mde::table::Value(
                              r[1].AsDouble() +
                              mde::SampleStandardNormal(rng))});
        }
        return t;
      };
      if (!db.AddChainTable(std::move(spec)).ok()) std::abort();
      db.set_history_limit(3);
    }
    // pf: pre-generated observations from the AR model.
    {
      Rng rng(31);
      double x = 0.0;
      for (size_t t = 0; t < 12; ++t) {
        x = 0.9 * x + mde::SampleNormal(rng, 0.0, 0.5);
        observations.push_back({x + mde::SampleNormal(rng, 0.0, 0.4)});
      }
      pf_options.num_particles = 200;
      pf_options.seed = 77;
      pf_options.pool = &pool;
    }
    // wildfire: small terrain, bootstrap proposal.
    {
      terrain = mde::wildfire::GenerateTerrain(20, 20, 0.4, 0.1, 13);
      sim = std::make_unique<mde::wildfire::FireSim>(
          terrain, mde::wildfire::FireSim::Config{});
      sensors = std::make_unique<mde::wildfire::SensorModel>(
          terrain, mde::wildfire::SensorModel::Config{});
      wf_config.num_particles = 40;
    }
  }

  ThreadPool pool;
  std::vector<mde::dsgd::SparseRow> rows;
  std::vector<std::vector<size_t>> strata;
  mde::dsgd::DsgdOptions dsgd_options;
  mde::dsgd::RatingsDataset ratings;
  mde::dsgd::CompletionOptions mc_options;
  mde::simsql::MarkovChainDb db;
  ArModel model;
  std::vector<mde::smc::Observation> observations;
  mde::smc::ParticleFilterOptions pf_options;
  mde::wildfire::Terrain terrain;
  std::unique_ptr<mde::wildfire::FireSim> sim;
  std::unique_ptr<mde::wildfire::SensorModel> sensors;
  mde::wildfire::AssimilationConfig wf_config;
};

std::vector<Harness> MakeHarnesses(Problems& p) {
  std::vector<Harness> hs;
  hs.push_back({"dsgd", "dsgd.round", p.dsgd_options.rounds, [&p]() {
                  return std::make_unique<mde::dsgd::DsgdRun>(
                      p.rows, p.rows.size(), p.strata, p.pool,
                      p.dsgd_options);
                }});
  hs.push_back({"mc", "mc.sub_epoch",
                p.mc_options.epochs * p.mc_options.blocks, [&p]() {
                  return std::make_unique<mde::dsgd::MatrixCompletionRun>(
                      p.ratings.train, p.ratings.rows, p.ratings.cols,
                      p.pool, p.mc_options);
                }});
  hs.push_back({"simsql", "simsql.version", /*steps=10 -> versions 0..10*/
                11, [&p]() {
                  return std::make_unique<mde::simsql::ChainRunner>(
                      p.db, 10, /*seed=*/42, /*rep=*/0);
                }});
  hs.push_back({"pf", "smc.step", p.observations.size(), [&p]() {
                  return std::make_unique<mde::smc::FilterRun>(
                      p.model, p.observations, p.pf_options);
                }});
  hs.push_back({"wildfire", "wildfire.step", 8, [&p]() {
                  return std::make_unique<mde::wildfire::AssimilationDriver>(
                      *p.sim, *p.sensors, 8, p.wf_config,
                      /*truth_seed=*/11);
                }});
  return hs;
}

/// Uninterrupted run; returns the final snapshot.
Result<std::string> Reference(const Harness& h) {
  auto engine = h.make();
  while (!engine->Done()) MDE_RETURN_NOT_OK(engine->StepOnce());
  return engine->Save();
}

/// Run to step k, Save, destroy, Restore into a fresh engine, finish.
/// When `ckpt_tier` is set, the pre-kill half runs under that SIMD kernel
/// tier and the restore+finish under the ambient tier — snapshots carry no
/// tier state, and the kernels are bitwise tier-identical, so the final
/// snapshot must still match the reference byte for byte.
Result<std::string> ManualKillRestore(const Harness& h, size_t k,
                                      const mde::simd::Tier* ckpt_tier) {
  const mde::simd::Tier session_tier = mde::simd::ActiveTier();
  std::string mid;
  {
    if (ckpt_tier != nullptr) mde::simd::SetTier(*ckpt_tier);
    auto victim = h.make();
    for (size_t s = 0; s < k && !victim->Done(); ++s) {
      if (!victim->StepOnce().ok()) {
        mde::simd::SetTier(session_tier);
        return Status::Internal("pre-kill step failed");
      }
    }
    auto m = victim->Save();
    mde::simd::SetTier(session_tier);
    MDE_RETURN_NOT_OK(m.status());
    mid = m.value();
  }  // victim destroyed: the "kill"
  auto engine = h.make();
  MDE_RETURN_NOT_OK(engine->Restore(mid));
  while (!engine->Done()) MDE_RETURN_NOT_OK(engine->StepOnce());
  return engine->Save();
}

/// Fault injected at the k-th hit of the engine's fault point; recovery via
/// the production RunWithRecovery loop.
Result<std::string> InjectAndRecover(const Harness& h, size_t k) {
  mde::ckpt::FaultInjector::Config fc;
  fc.enabled = true;
  fc.point = h.fault_point;
  fc.fire_at_hit = k;
  mde::ckpt::FaultInjector::Global().Configure(fc);
  auto engine = h.make();
  mde::ckpt::RecoveryOptions opts;
  opts.checkpoint_every = 1;
  opts.retry.sleep = false;
  const Result<mde::ckpt::RecoveryStats> stats =
      mde::ckpt::RunWithRecovery(*engine, opts);
  mde::ckpt::FaultInjector::Global().Configure({});  // quiesce
  MDE_RETURN_NOT_OK(stats.status());
  if (stats.value().faults == 0) {
    return Status::Internal("fault point '" + h.fault_point +
                            "' never fired");
  }
  return engine->Save();
}

}  // namespace

int main(int argc, char** argv) {
  mde::obs::DiagServer::MaybeStartFromEnv();
  std::string engine_filter = "all";
  std::string mode = "both";
  double fault_frac = 0.5;
  size_t threads = 2;
  bool have_ckpt_tier = false;
  mde::simd::Tier ckpt_tier = mde::simd::Tier::kScalar;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      engine_filter = v;
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      mode = v;
    } else if (arg == "--fault-frac") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      fault_frac = std::atof(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      threads = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--ckpt-tier") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      if (!mde::simd::ParseTier(v, &ckpt_tier)) return Usage(argv[0]);
      if (static_cast<int>(ckpt_tier) >
          static_cast<int>(mde::simd::BestSupportedTier())) {
        std::cerr << "--ckpt-tier " << v
                  << " not supported on this machine\n";
        return 1;
      }
      have_ckpt_tier = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (fault_frac <= 0.0 || fault_frac >= 1.0 || threads == 0 ||
      (mode != "manual" && mode != "inject" && mode != "both")) {
    return Usage(argv[0]);
  }

  Problems problems(threads);
  bool any = false;
  bool all_ok = true;
  for (const Harness& h : MakeHarnesses(problems)) {
    if (engine_filter != "all" && engine_filter != h.name) continue;
    any = true;
    const size_t k = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(fault_frac * static_cast<double>(h.total_steps))));
    const Result<std::string> ref = Reference(h);
    if (!ref.ok()) {
      std::cerr << h.name << ": reference run failed: "
                << ref.status().message() << "\n";
      return 2;
    }
    if (mode == "manual" || mode == "both") {
      const Result<std::string> got = ManualKillRestore(
          h, k, have_ckpt_tier ? &ckpt_tier : nullptr);
      if (!got.ok()) {
        std::cerr << h.name << ": kill/restore failed: "
                  << got.status().message() << "\n";
        return 2;
      }
      const bool match = got.value() == ref.value();
      all_ok = all_ok && match;
      std::cout << h.name << " manual  kill@" << k << "/" << h.total_steps;
      if (have_ckpt_tier) {
        std::cout << "  ckpt-tier=" << mde::simd::TierName(ckpt_tier)
                  << "->" << mde::simd::TierName(mde::simd::ActiveTier());
      }
      std::cout << (match ? "  bit-identical" : "  MISMATCH") << "\n";
    }
    if (mode == "inject" || mode == "both") {
      const Result<std::string> got = InjectAndRecover(h, k);
      if (!got.ok()) {
        std::cerr << h.name << ": fault injection failed: "
                  << got.status().message() << "\n";
        return 2;
      }
      const bool match = got.value() == ref.value();
      all_ok = all_ok && match;
      std::cout << h.name << " inject  fault@" << k << "/" << h.total_steps
                << (match ? "  bit-identical" : "  MISMATCH") << "\n";
    }
  }
  if (!any) return Usage(argv[0]);
  return all_ok ? 0 : 1;
}
