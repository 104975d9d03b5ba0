#include "serve/server.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/context.h"
#include "obs/http.h"
#include "obs/metrics.h"

namespace mde::serve {

namespace {

/// ParamHash's seed, hashed once rather than on every request.
const uint64_t kParamHashSeed = obs::FingerprintString("serve.params");

/// Order-independent parameter hash: std::map iterates sorted by name, so
/// two requests binding the same values hash identically regardless of how
/// the caller built the map. Doubles are hashed by IEEE-754 payload —
/// bit-identity is the contract everywhere else too.
uint64_t ParamHash(const std::map<std::string, double>& params) {
  uint64_t h = kParamHashSeed;
  for (const auto& [name, value] : params) {
    h = obs::FingerprintMix(h, obs::FingerprintString(name));
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    h = obs::FingerprintMix(h, bits);
  }
  return h;
}

/// What one request's replications need, behind a single pointer so the
/// rep callback fits std::function's small buffer (no allocation per
/// request). A head request pins its version lazily, at the first
/// replication, and the replication seed is derived there too: a cache hit
/// never touches the chain and never hashes the key.
struct RepContext {
  VersionChain* chain = nullptr;
  const McQuerySpec* spec = nullptr;
  const std::map<std::string, double>* params = nullptr;
  const CacheKey* key = nullptr;
  uint64_t base_seed = 0;
  uint64_t rep_seed = 0;
  // rep_seed is derived from *key. Set only after a successful pin, so a
  // head retry on a newer version derives it afresh.
  bool seeded = false;
  SnapshotRef snap;
  bool reclaimed = false;  // key->version was gone before it could be pinned

  Result<double> Run(uint64_t rep) {
    if (!snap.valid()) {
      snap = chain->Pin(key->version);
      if (!snap.valid()) {
        reclaimed = true;
        return Status::FailedPrecondition("serve: head version reclaimed");
      }
    }
    if (!seeded) {
      // Replication i of a key always evaluates with Substream(rep_seed,
      // i): a pure function of (base seed, key, i). This is what makes an
      // answer assembled from cached + topped-up reps bit-identical to any
      // single session running the same reps itself.
      rep_seed = obs::FingerprintMix(
          obs::FingerprintMix(obs::FingerprintMix(base_seed, key->query_fp),
                              key->param_hash),
          key->version);
      seeded = true;
    }
    Rng rng = Rng::Substream(rep_seed, rep);
    return spec->eval(snap.state(), *params, rng);
  }
};

}  // namespace

Session::Session(Server* server, uint64_t id, std::string tag)
    : server_(server),
      id_(id),
      tag_(std::move(tag)),
      fingerprint_(
          obs::FingerprintMix(obs::FingerprintString("serve.session"), id)) {}

Result<Answer> Session::Execute(const Request& req) {
  return server_->Execute(*this, req);
}

Server::Server(simsql::MarkovChainDb& db, Options opts)
    : db_(db),
      opts_(opts),
      chain_(opts.min_retain_versions),
      cache_(opts.cache) {
  diag_handler_id_ = obs::RegisterDiagHandler(
      "/sessionz",
      [this](const std::string&) {
        obs::DiagPage page;
        page.body = RenderSessionz();
        return page;
      },
      "<a href=\"/sessionz\">/sessionz</a> — serve sessions &amp; result "
      "cache");
}

Server::~Server() { obs::UnregisterDiagHandler(diag_handler_id_); }

Status Server::AddQuery(McQuerySpec spec) {
  if (spec.name.empty() || !spec.eval) {
    return Status::InvalidArgument("serve: query needs a name and an eval");
  }
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (runner_ != nullptr) {
    return Status::FailedPrecondition(
        "serve: AddQuery after Start() (sessions read queries lock-free)");
  }
  const uint64_t fp = obs::FingerprintString("serve.query:" + spec.name);
  if (!queries_.emplace(spec.name, RegisteredQuery{spec, fp}).second) {
    return Status::AlreadyExists("serve: query '" + spec.name +
                                 "' already registered");
  }
  return Status::OK();
}

Status Server::Start() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (runner_ != nullptr) {
    return Status::FailedPrecondition("serve: already started");
  }
  // Effectively unbounded steps: the serving chain advances for the
  // process lifetime; Done() is never the stop condition here.
  const size_t steps = std::numeric_limits<size_t>::max() - 1;
  runner_ = std::make_unique<simsql::ChainRunner>(
      db_, steps, opts_.seed, /*rep=*/0,
      [this](size_t version, const simsql::DatabaseState& state) -> Status {
        // Copy-install: the runner keeps evolving its working state; the
        // chain owns an immutable copy per version. Tables share their
        // frozen columnar blocks, so the copy is cheap after first freeze.
        const uint64_t installed = chain_.Install(state);
        if (installed != version) {
          return Status::Internal("serve: version drift between runner and "
                                  "chain");
        }
        return Status::OK();
      });
  return runner_->StepOnce();  // realize + install version 0
}

Status Server::AdvanceVersion() {
  std::lock_guard<std::mutex> lock(advance_mu_);
  if (runner_ == nullptr) {
    return Status::FailedPrecondition("serve: Start() before advancing");
  }
  MDE_RETURN_NOT_OK(runner_->StepOnce());
  // New head: age the cache one epoch so entries about superseded versions
  // drift toward eviction.
  cache_.AdvanceEpoch();
  return Status::OK();
}

std::shared_ptr<Session> Server::OpenSession(std::string tag) {
  const uint64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<Session> session(
      new Session(this, id, std::move(tag)));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= prune_sessions_at_) {
    // Amortized O(1): the next prune waits until the registry doubles
    // past what survived this one.
    std::erase_if(sessions_, [](const std::weak_ptr<Session>& weak) {
      return weak.expired();
    });
    prune_sessions_at_ = std::max(kMinSessionPrune, 2 * sessions_.size());
  }
  sessions_.push_back(session);
  MDE_OBS_COUNT("serve.sessions.opened", 1);
  return session;
}

size_t Server::session_registry_size() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

Result<Answer> Server::Execute(Session& session, const Request& req) {
  MDE_OBS_QUERY_SCOPE("serve.session", session.fingerprint_);
  // An explicit version is pinned first; a head request reads the head
  // number only. A version exists before queries_ is read, so no AddQuery
  // can still be running.
  CacheKey key;
  RepContext ctx;
  ctx.chain = &chain_;
  ctx.params = &req.params;
  ctx.key = &key;
  ctx.base_seed = opts_.seed;
  if (req.version != Request::kHead) {
    ctx.snap = chain_.Pin(req.version);
    if (!ctx.snap.valid()) {
      return Status::FailedPrecondition(
          "serve: version " + std::to_string(req.version) +
          " is not resident (never installed, or reclaimed)");
    }
  } else if (chain_.head_version() == VersionChain::kNone) {
    return Status::FailedPrecondition(
        "serve: no version installed yet (Start() the server)");
  }
  const auto it = queries_.find(req.query);
  if (it == queries_.end()) {
    return Status::NotFound("serve: no query '" + req.query + "'");
  }
  ctx.spec = &it->second.spec;

  key.query_fp = it->second.fingerprint;
  key.param_hash = ParamHash(req.params);
  // A head request whose version was reclaimed before its first
  // replication could pin it (min_retain newer installs) retries on the
  // new head.
  Result<ResultCache::FetchResult> fetched = ResultCache::FetchResult();
  do {
    key.version = ctx.snap.valid() ? ctx.snap.version() : chain_.head_version();
    ctx.reclaimed = false;
    fetched = cache_.Fetch(key, req.target_half_width, opts_.min_reps,
                           req.max_reps,
                           [c = &ctx](uint64_t rep) { return c->Run(rep); });
  } while (!fetched.ok() && ctx.reclaimed);
  if (!fetched.ok()) return fetched.status();

  Answer answer;
  answer.estimate = fetched.value().estimate;
  answer.half_width = fetched.value().half_width;
  answer.reps = fetched.value().reps;
  answer.reps_added = fetched.value().reps_added;
  answer.version = key.version;
  answer.cache_hit = fetched.value().pure_hit;

  session.queries_.fetch_add(1, std::memory_order_relaxed);
  if (answer.cache_hit) {
    session.cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  session.reps_run_.fetch_add(answer.reps_added, std::memory_order_relaxed);
  MDE_OBS_COUNT("serve.requests", 1);
  return answer;
}

std::string Server::RenderSessionz() const {
  std::ostringstream os;
  os << "serve sessions\n";
  os << "head_version: ";
  const uint64_t head = chain_.head_version();
  if (head == VersionChain::kNone) {
    os << "(none)";
  } else {
    os << head;
  }
  os << "\nlive_versions: " << chain_.live_versions()
     << "\nreclaimed_versions: " << chain_.reclaimed() << "\n";
  const CacheStats cs = cache_.stats();
  os << "cache: entries=" << cs.entries << " bytes=" << cs.bytes
     << " pure_hits=" << cs.pure_hits << " topups=" << cs.topups
     << " misses=" << cs.misses << " reps_run=" << cs.reps_run
     << " reps_saved=" << cs.reps_saved << " evictions=" << cs.evictions
     << " slab_entries=" << cs.slab_entries << "\n";
  os << "sessions:\n";
  std::lock_guard<std::mutex> lock(sessions_mu_);
  size_t open = 0;
  for (const auto& weak : sessions_) {
    const std::shared_ptr<Session> s = weak.lock();
    if (s == nullptr) continue;
    ++open;
    os << "  #" << s->id() << " tag=" << s->tag()
       << " queries=" << s->queries() << " cache_hits=" << s->cache_hits()
       << " reps_run=" << s->reps_run() << "\n";
  }
  if (open == 0) os << "  (none open)\n";
  return os.str();
}

Result<std::vector<std::vector<Answer>>> ServeLoop(
    Server& server, const std::vector<SessionWorkload>& workloads,
    ThreadPool* pool) {
  std::vector<std::vector<Answer>> results(workloads.size());
  std::vector<Status> statuses(workloads.size());
  const auto run_one = [&server, &workloads, &results,
                        &statuses](size_t i) {
    const std::shared_ptr<Session> session =
        server.OpenSession(workloads[i].tag);
    results[i].reserve(workloads[i].requests.size());
    for (const Request& req : workloads[i].requests) {
      Result<Answer> answer = session->Execute(req);
      if (!answer.ok()) {
        statuses[i] = answer.status();
        return;  // abort this session's replay; others continue
      }
      results[i].push_back(std::move(answer).value());
    }
  };
  if (pool != nullptr) {
    for (size_t i = 0; i < workloads.size(); ++i) {
      pool->Submit([&run_one, i] { run_one(i); });
    }
    pool->WaitAll();
  } else {
    for (size_t i = 0; i < workloads.size(); ++i) run_one(i);
  }
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return results;
}

}  // namespace mde::serve
