#ifndef MDE_OBS_HTTP_H_
#define MDE_OBS_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

/// Live diagnostics server: a small dependency-free blocking HTTP/1.1
/// server exposing the obs stack while the process runs — the scrape
/// surface the ROADMAP's serving milestone needs, and the live counterpart
/// of the after-the-fact artifacts (Chrome traces, JSONL samples, flight
/// dumps).
///
/// Endpoints:
///   /            index (HTML)
///   /healthz     "ok"
///   /metrics     Prometheus exposition (PrometheusText: registry +
///                build info + attribution families)
///   /statusz     build info, git hash, simd tier, uptime, RSS, profiler
///                state, thread-pool worker stats (text)
///   /queryz      per-query attribution table (HTML; ?format=json)
///   /tracez      recent span rings (flame summary text; ?format=json for
///                Chrome trace JSON)
///   /flightz     flight-recorder snapshot, without crashing anything
///   /profilez    on-demand CPU profile: ?seconds=N (default 2, clamped to
///                [0.1, 20]), ?query=0x<fp> filters samples to one query,
///                ?hz=N overrides the rate for temporary sessions; returns
///                folded stacks ("frame;...;frame count") ready for any
///                flamegraph tool
///
/// Threading: one accept thread plus a bounded pool of handler threads
/// (kHandlerThreads); accepted sockets queue up to kAcceptBacklog deep and
/// beyond that are answered 503 inline by the accept thread. Handlers only
/// READ side-band obs state (registry snapshots, ring snapshots), so
/// serving traffic cannot change an engine result bit — except /profilez,
/// which may start a temporary profiling session (also side-band).
///
/// Binds 127.0.0.1 only: this is a diagnostics port, not a public API.
/// Port 0 picks an ephemeral port (tests); port() reports the bound one.
namespace mde::obs {

/// One page produced by a registered diagnostics handler.
struct DiagPage {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Handler for one registered path; receives the raw query string (use
/// DiagQueryParam to pull parameters out of it). Handlers run on DiagServer
/// handler threads and must be thread-safe and read-only with respect to
/// engine state — the same contract as the built-in endpoints.
using DiagHandler = std::function<DiagPage(const std::string& query)>;

/// Registers `handler` for `path` (e.g. "/sessionz") on every DiagServer in
/// the process; upper layers (src/serve sits above obs) use this to export
/// their own endpoints without obs depending on them. Built-in endpoints
/// take precedence over registered ones; registering a path twice replaces
/// the earlier handler. `index_line` (optional, HTML) is appended to the
/// index page. Returns an id for UnregisterDiagHandler.
uint64_t RegisterDiagHandler(const std::string& path, DiagHandler handler,
                             const std::string& index_line = "");
void UnregisterDiagHandler(uint64_t id);

/// First value of `key` in a raw query string ("" when absent) —
/// the parameter parser the built-in endpoints use, exposed for handlers.
std::string DiagQueryParam(const std::string& query, const std::string& key);

class DiagServer {
 public:
  static constexpr int kHandlerThreads = 4;
  static constexpr int kAcceptBacklog = 16;

  DiagServer();
  /// Stops the server if running.
  ~DiagServer();

  DiagServer(const DiagServer&) = delete;
  DiagServer& operator=(const DiagServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept and
  /// handler threads. Returns false if already running or on any socket
  /// error.
  bool Start(uint16_t port);

  /// Joins every thread and closes every socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// The bound port (the ephemeral one when Start was given 0); 0 when not
  /// running.
  int port() const { return port_.load(std::memory_order_relaxed); }

  /// Requests served (any status). Test hook.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Env-knob entry point for drivers and benches. Two independent knobs:
  /// MDE_PROF_HZ (a number > 0, or "default" for Profiler::kDefaultHz)
  /// starts the continuous profiler at that rate — with or without a
  /// server; MDE_DIAG_PORT starts a process-lifetime server on that port
  /// (0 = ephemeral) and returns it (nullptr otherwise). Prints one "mde:
  /// diagnostics on http://127.0.0.1:<port>" line to stderr on server
  /// start. Idempotent — the first call wins; the server is leaked on
  /// purpose (it must outlive main's locals).
  static DiagServer* MaybeStartFromEnv();

 private:
  struct Request {
    std::string method;
    std::string path;    // decoded path without query string
    std::string query;   // raw query string (no '?')
    /// First value of `key` in the query string ("" when absent).
    std::string Param(const std::string& key) const;
  };

  void AcceptLoop();
  void HandlerLoop();
  void HandleConnection(int fd);
  DiagPage Route(const Request& req);

  std::atomic<bool> running_{false};
  std::atomic<int> port_{0};
  std::atomic<uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::vector<std::thread> handler_threads_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;
  bool stopping_ = false;  // guarded by queue_mu_
};

}  // namespace mde::obs

#endif  // MDE_OBS_HTTP_H_
