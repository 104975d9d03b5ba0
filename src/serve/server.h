#ifndef MDE_SERVE_SERVER_H_
#define MDE_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.h"
#include "serve/mvcc.h"
#include "simsql/simsql.h"
#include "util/status.h"
#include "util/thread_pool.h"

/// Concurrent multi-session serving front end — the "millions of users"
/// shape from the ROADMAP: most traffic is answered from the shared result
/// cache with an explicit error bar, and only precision-raising traffic
/// spends compute. A Server owns
///
///   - the version chain (serve/mvcc.h) fed by a resumable simsql
///     ChainRunner: AdvanceVersion() realizes the next database version and
///     installs it atomically; readers keep their pinned versions;
///   - the CLT-bounded result cache (serve/cache.h), shared by every
///     session, keyed by (query fingerprint, parameter hash, version);
///   - the registered Monte Carlo queries and the replication seed
///     discipline that makes answers bit-identical across sessions: the
///     Rng for replication i of a key is Substream(derive(seed, key), i),
///     a pure function of key and index.
///
/// Sessions are cheap handles carrying a tag and per-session counters (on
/// their own cache lines: concurrent sessions share no written line);
/// Session::Execute runs under an obs::QueryScope so /queryz, the profiler,
/// and the flight recorder attribute work to the session. The Server
/// exports /sessionz on any running obs::DiagServer via the handler
/// registry.
namespace mde::serve {

/// One registered Monte Carlo query: replication = eval once against a
/// pinned database version with a dedicated Rng substream. eval MUST be a
/// pure function of (state, params, rng) — no hidden mutable state — or
/// the cache's bit-identity contract breaks.
struct McQuerySpec {
  std::string name;
  std::function<Result<double>(const simsql::DatabaseState& state,
                               const std::map<std::string, double>& params,
                               Rng& rng)>
      eval;
};

/// One client request.
struct Request {
  std::string query;
  /// Bound parameters, hashed into the cache key (order-independent: the
  /// map is sorted by name).
  std::map<std::string, double> params;
  /// Requested precision: the answer's CLT half-width must be <= this, or
  /// max_reps was hit (the answer then reports the honest wider bound).
  double target_half_width = 0.0;
  uint64_t max_reps = 256;
  /// kHead = newest version at execution time; otherwise a pinned read of
  /// that exact version (fails if reclaimed).
  static constexpr uint64_t kHead = ~0ull;
  uint64_t version = kHead;
};

/// One answer; always carries its error bar.
struct Answer {
  double estimate = 0.0;
  double half_width = 0.0;
  uint64_t reps = 0;        // replications backing the estimate
  uint64_t reps_added = 0;  // replications this request actually ran
  uint64_t version = 0;     // database version the answer is about
  bool cache_hit = false;   // answered without running any replication
};

class Server;

/// A client session: a tagged handle over the shared server. Thread-safe
/// only in the usual session sense — one logical client at a time; distinct
/// sessions execute fully concurrently.
class alignas(64) Session {
 public:
  Result<Answer> Execute(const Request& req);

  uint64_t id() const { return id_; }
  const std::string& tag() const { return tag_; }
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t reps_run() const {
    return reps_run_.load(std::memory_order_relaxed);
  }

 private:
  friend class Server;
  Session(Server* server, uint64_t id, std::string tag);

  Server* server_;
  uint64_t id_;
  std::string tag_;
  uint64_t fingerprint_;  // attribution fp: serve.session x id
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> reps_run_{0};
};

class Server {
 public:
  struct Options {
    /// Base seed for the chain AND the per-key replication substreams.
    uint64_t seed = 0x5e17e5eed;
    /// Replication floor per answer (>= 2; the CLT needs it).
    uint64_t min_reps = 8;
    /// Unpinned versions kept resident behind the head.
    size_t min_retain_versions = 2;
    ResultCache::Options cache;
  };

  /// `db` must outlive the server and must not be mutated externally while
  /// the server runs (the server's ChainRunner owns its evolution).
  Server(simsql::MarkovChainDb& db, Options opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a query; name must be unique. Queries are registered before
  /// Start(): afterwards sessions read the registry without a lock, so a
  /// late AddQuery returns FailedPrecondition.
  Status AddQuery(McQuerySpec spec);

  /// Realizes and installs version 0. Call once before serving.
  Status Start();

  /// Realizes the next chain version and installs it atomically; readers
  /// holding older versions are unaffected. One writer at a time — calls
  /// serialize internally; concurrent with Execute by design.
  Status AdvanceVersion();

  /// Opens a tagged session. Sessions may outlive the Server's serving
  /// phase but must not Execute after the Server is destroyed.
  std::shared_ptr<Session> OpenSession(std::string tag);

  uint64_t head_version() const { return chain_.head_version(); }
  VersionChain& chain() { return chain_; }
  ResultCache& cache() { return cache_; }
  const Options& options() const { return opts_; }

  /// Session registry entries, open or closed but not yet pruned. Never
  /// more than max(64, twice the sessions that survived the last prune).
  size_t session_registry_size() const;

  /// The /sessionz page body (text). Exposed for tests and for the
  /// registered DiagServer handler.
  std::string RenderSessionz() const;

 private:
  friend class Session;
  Result<Answer> Execute(Session& session, const Request& req);

  simsql::MarkovChainDb& db_;
  const Options opts_;
  VersionChain chain_;
  ResultCache cache_;
  std::unique_ptr<simsql::ChainRunner> runner_;
  struct RegisteredQuery {
    McQuerySpec spec;
    uint64_t fingerprint = 0;  // computed once, in AddQuery
  };
  std::mutex advance_mu_;  // serializes AddQuery/Start/AdvanceVersion
  std::map<std::string, RegisteredQuery> queries_;  // fixed after Start()

  mutable std::mutex sessions_mu_;
  // Expired entries are pruned in OpenSession once the registry reaches
  // prune_sessions_at_ (guarded by sessions_mu_, like sessions_).
  static constexpr size_t kMinSessionPrune = 64;
  std::vector<std::weak_ptr<Session>> sessions_;
  size_t prune_sessions_at_ = kMinSessionPrune;
  std::atomic<uint64_t> next_session_id_{1};
  uint64_t diag_handler_id_ = 0;
};

/// One session's scripted workload for the closed-loop serve driver.
struct SessionWorkload {
  std::string tag;
  std::vector<Request> requests;
};

/// Replays every workload concurrently (one pool task per session; inline
/// when pool is null), preserving per-session request order. Returns the
/// per-session answer vectors, index-aligned with `workloads`; the first
/// error aborts that session's replay and fails the whole call.
Result<std::vector<std::vector<Answer>>> ServeLoop(
    Server& server, const std::vector<SessionWorkload>& workloads,
    ThreadPool* pool);

}  // namespace mde::serve

#endif  // MDE_SERVE_SERVER_H_
