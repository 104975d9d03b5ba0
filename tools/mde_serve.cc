/// mde_serve: the serving layer end to end — a database-valued Markov
/// chain (simsql) advanced version by version behind MVCC snapshots, a
/// shared CLT-bounded Monte Carlo result cache, and N concurrent client
/// sessions asking for answers at an explicit precision.
///
/// Starts the demo asset-price chain, runs a handful of requests across
/// two sessions and two database versions, and prints each answer with its
/// error bar and cache outcome. With --diag_port=N the live diagnostics
/// server runs for --serve_seconds so /sessionz, /metrics and friends can
/// be scraped while requests flow. The engine's benchmark lives in
/// perfbench/.
///
/// Usage:
///   mde_serve [--seed=42] [--diag_port=N] [--serve_seconds=S]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "obs/http.h"
#include "serve/server.h"
#include "simsql/simsql.h"
#include "table/table.h"
#include "util/rng.h"

namespace {

using mde::Rng;
using mde::Status;
using mde::serve::Answer;
using mde::serve::McQuerySpec;
using mde::serve::Request;
using mde::serve::Server;
using mde::simsql::DatabaseState;
using mde::table::DataType;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kAssets = 16;

/// Demo model: PRICES is a random-walk chain table (one row per asset),
/// POSITIONS is deterministic. One Monte Carlo replication of the "pv"
/// query simulates every price `horizon` steps forward at volatility `vol`
/// and reports the portfolio value — so the answer distribution genuinely
/// needs the CLT machinery.
mde::simsql::MarkovChainDb MakeDemoDb() {
  mde::simsql::MarkovChainDb db;
  Table pos{
      Schema({{"ASSET", DataType::kInt64}, {"QTY", DataType::kDouble}})};
  for (size_t i = 0; i < kAssets; ++i) {
    pos.Append({Value(static_cast<int64_t>(i)),
                Value(1.0 + static_cast<double>(i % 5))});
  }
  (void)db.AddDeterministic("POSITIONS", std::move(pos));

  mde::simsql::ChainTableSpec spec;
  spec.name = "PRICES";
  spec.init = [](const DatabaseState&, Rng& rng) -> mde::Result<Table> {
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({Value(static_cast<int64_t>(i)),
                Value(80.0 + 5.0 * static_cast<double>(i) +
                      rng.NextDouble())});
    }
    return t;
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState&,
                       Rng& rng) -> mde::Result<Table> {
    const Table& p = prev.at("PRICES");
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({p.row(i)[0],
                Value(p.row(i)[1].AsDouble() + (rng.NextDouble() - 0.5))});
    }
    return t;
  };
  (void)db.AddChainTable(std::move(spec));
  return db;
}

McQuerySpec PortfolioValueQuery() {
  McQuerySpec spec;
  spec.name = "pv";
  spec.eval = [](const DatabaseState& state,
                 const std::map<std::string, double>& params,
                 Rng& rng) -> mde::Result<double> {
    const double vol = params.count("vol") != 0 ? params.at("vol") : 1.0;
    const int horizon = params.count("horizon") != 0
                            ? static_cast<int>(params.at("horizon"))
                            : 8;
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

struct Flags {
  uint64_t seed = 42;
  int diag_port = -1;
  int serve_seconds = 5;
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto intval = [&arg](const char* name, int* out) {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = std::atoi(arg.c_str() + prefix.size());
      return true;
    };
    int seed_int = -1;
    if (intval("--diag_port", &f->diag_port) ||
        intval("--serve_seconds", &f->serve_seconds)) {
      // parsed
    } else if (intval("--seed", &seed_int)) {
      f->seed = static_cast<uint64_t>(seed_int);
    } else {
      std::fprintf(stderr, "mde_serve: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int RunDemo(const Flags& flags) {
  mde::simsql::MarkovChainDb db = MakeDemoDb();
  Server::Options opts;
  opts.seed = flags.seed;
  Server server(db, opts);
  if (!server.AddQuery(PortfolioValueQuery()).ok()) return 1;
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "mde_serve: %s\n", st.ToString().c_str());
    return 1;
  }

  std::unique_ptr<mde::obs::DiagServer> diag;
  if (flags.diag_port >= 0) {
    diag = std::make_unique<mde::obs::DiagServer>();
    if (diag->Start(static_cast<uint16_t>(flags.diag_port))) {
      std::printf("diagnostics on http://127.0.0.1:%d (/sessionz)\n",
                  diag->port());
    }
  }

  std::printf("=== mde_serve demo: 2 sessions, 2 versions ===\n");
  auto alice = server.OpenSession("alice");
  auto bob = server.OpenSession("bob");
  const auto run = [](const char* who, const std::shared_ptr<mde::serve::Session>& s,
                      const Request& req) {
    auto r = s->Execute(req);
    if (!r.ok()) {
      std::printf("%-6s ERROR %s\n", who, r.status().ToString().c_str());
      return;
    }
    const Answer& a = r.value();
    std::printf(
        "%-6s v%llu pv(vol=%.2f) = %10.2f +/- %6.3f  reps=%llu (+%llu)  %s\n",
        who, static_cast<unsigned long long>(a.version),
        req.params.at("vol"), a.estimate, a.half_width,
        static_cast<unsigned long long>(a.reps),
        static_cast<unsigned long long>(a.reps_added),
        a.cache_hit ? "HIT" : (a.reps_added < a.reps ? "topup" : "miss"));
  };

  Request loose;
  loose.query = "pv";
  loose.params = {{"vol", 1.0}, {"horizon", 8.0}};
  loose.target_half_width = kInf;
  Request tight = loose;
  tight.target_half_width = 1.0;
  tight.max_reps = 8192;

  run("alice", alice, loose);   // miss: runs min_reps
  run("bob", bob, loose);       // pure hit: same key, looser-or-equal
  run("bob", bob, tight);       // topup: only incremental reps
  run("alice", alice, tight);   // pure hit at the tighter bound
  (void)server.AdvanceVersion();
  run("alice", alice, tight);   // new version: fresh key, miss again
  Request pinned = tight;
  pinned.version = 0;
  run("bob", bob, pinned);      // explicit old version: still a pure hit

  std::printf("\n%s", server.RenderSessionz().c_str());
  if (diag != nullptr && diag->running()) {
    std::printf("serving diagnostics for %d s...\n", flags.serve_seconds);
    std::this_thread::sleep_for(std::chrono::seconds(flags.serve_seconds));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  mde::obs::DiagServer::MaybeStartFromEnv();
  return RunDemo(flags);
}
