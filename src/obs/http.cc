#include "obs/http.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/context.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mde::obs {

namespace {

void HtmlEscapeInto(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      case '"':
        out->append("&quot;");
        break;
      default:
        out->push_back(c);
    }
  }
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      char hex[3] = {s[i + 1], s[i + 2], '\0'};
      char* end = nullptr;
      const long v = std::strtol(hex, &end, 16);
      if (end == hex + 2) {
        out.push_back(static_cast<char>(v));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 503:
      return "Service Unavailable";
  }
  return "Internal Server Error";
}

/// Loops ::send (MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the
/// handler thread) until the buffer drains or the socket genuinely errors.
/// Short writes are normal on a large body against a slow reader (the
/// kernel send buffer fills and send returns a partial count), and EINTR
/// can interrupt a blocked send at any time — both must RESUME, not abort:
/// aborting used to truncate large /metrics and /profilez bodies under
/// throttled scrapes. EPIPE/ECONNRESET (peer hung up) and EAGAIN (the
/// SO_SNDTIMEO budget expired on a stalled client) end the attempt.
void SendAll(int fd, const char* buf, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t w = ::send(fd, buf + off, len - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // EPIPE, ECONNRESET, EAGAIN/EWOULDBLOCK (send timeout), ...
    }
    if (w == 0) return;
    off += static_cast<size_t>(w);
  }
}

void SendResponse(int fd, int status, const std::string& content_type,
                  const std::string& body) {
  std::string head;
  head.reserve(160);
  head += "HTTP/1.1 ";
  head += std::to_string(status);
  head.push_back(' ');
  head += StatusText(status);
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(body.size());
  head += "\r\nConnection: close\r\n\r\n";
  SendAll(fd, head.data(), head.size());
  SendAll(fd, body.data(), body.size());
}

constexpr char kIndexPrefix[] =
    "<!doctype html><html><head><title>mde diagnostics</title></head><body>"
    "<h1>mde diagnostics</h1><ul>"
    "<li><a href=\"/healthz\">/healthz</a> — liveness</li>"
    "<li><a href=\"/metrics\">/metrics</a> — Prometheus exposition</li>"
    "<li><a href=\"/statusz\">/statusz</a> — build info, uptime, pool</li>"
    "<li><a href=\"/queryz\">/queryz</a> — per-query attribution "
    "(<a href=\"/queryz?format=json\">json</a>)</li>"
    "<li><a href=\"/tracez\">/tracez</a> — recent spans "
    "(<a href=\"/tracez?format=json\">chrome json</a>)</li>"
    "<li><a href=\"/flightz\">/flightz</a> — flight-recorder snapshot</li>"
    "<li><a href=\"/profilez?seconds=2\">/profilez?seconds=2</a> — CPU "
    "profile, folded stacks (&amp;query=0x&lt;fp&gt; to slice)</li>";

constexpr char kIndexSuffix[] = "</ul></body></html>";

/// Process-global table of handler-registered diagnostics pages. Upper
/// layers (src/serve's /sessionz) register here; every DiagServer consults
/// it in Route after the built-ins. Entries are looked up by path and the
/// matched std::function is copied out under the lock, then invoked outside
/// it — a slow handler must not block registration, and a handler that
/// itself touches the registry must not deadlock.
struct DiagHandlerEntry {
  uint64_t id = 0;
  std::string path;
  DiagHandler handler;
  std::string index_line;
};

struct DiagHandlerRegistry {
  std::mutex mu;
  std::vector<DiagHandlerEntry> entries;  // guarded by mu
  uint64_t next_id = 1;                   // guarded by mu

  static DiagHandlerRegistry& Global() {
    static DiagHandlerRegistry* r = new DiagHandlerRegistry();  // leaked:
    // registrants may unregister from static destructors after a
    // function-local static registry would already be gone.
    return *r;
  }
};

std::string RenderIndex() {
  std::string body = kIndexPrefix;
  DiagHandlerRegistry& reg = DiagHandlerRegistry::Global();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const DiagHandlerEntry& e : reg.entries) {
    if (!e.index_line.empty()) {
      body += "<li>";
      body += e.index_line;
      body += "</li>";
    } else {
      body += "<li><a href=\"";
      HtmlEscapeInto(e.path, &body);
      body += "\">";
      HtmlEscapeInto(e.path, &body);
      body += "</a></li>";
    }
  }
  body += kIndexSuffix;
  return body;
}

}  // namespace

uint64_t RegisterDiagHandler(const std::string& path, DiagHandler handler,
                             const std::string& index_line) {
  DiagHandlerRegistry& reg = DiagHandlerRegistry::Global();
  std::lock_guard<std::mutex> lock(reg.mu);
  // Same path registered twice: latest wins, so a restarted subsystem can
  // re-register without leaking a stale handler bound to dead state.
  for (auto it = reg.entries.begin(); it != reg.entries.end();) {
    it = it->path == path ? reg.entries.erase(it) : it + 1;
  }
  const uint64_t id = reg.next_id++;
  reg.entries.push_back({id, path, std::move(handler), index_line});
  return id;
}

void UnregisterDiagHandler(uint64_t id) {
  DiagHandlerRegistry& reg = DiagHandlerRegistry::Global();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto it = reg.entries.begin(); it != reg.entries.end(); ++it) {
    if (it->id == id) {
      reg.entries.erase(it);
      return;
    }
  }
}

std::string DiagQueryParam(const std::string& query,
                           const std::string& key) {
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      return UrlDecode(query.substr(eq + 1, amp - eq - 1));
    }
    if (eq == std::string::npos || eq >= amp) {
      if (query.compare(pos, amp - pos, key) == 0) return "";
    }
    pos = amp + 1;
  }
  return "";
}

namespace {

std::string RenderStatusz() {
  // One RunSampleHooks so the pool gauges below are freshly published —
  // the same refresh /metrics gets, which is what keeps the two agreeing.
  RunSampleHooks();
  std::ostringstream os;
  os << "mde diagnostics\n";
  os << "git_hash: " << BuildGitHash() << "\n";
  os << "simd_tier: " << GetRuntimeLabel("simd_tier") << "\n";
  char uptime[32];
  std::snprintf(uptime, sizeof(uptime), "%.3f", ProcessUptimeSeconds());
  os << "uptime_s: " << uptime << "\n";
  const ProcessMemory mem = SampleProcessMemory();
  if (mem.ok) {
    os << "rss_kb: " << mem.rss_kb << "\n";
    os << "peak_rss_kb: " << mem.peak_rss_kb << "\n";
  }
  Profiler& prof = Profiler::Global();
  os << "profiler: " << (prof.running() ? "running" : "stopped")
     << " hz=" << prof.hz() << " samples=" << prof.samples_recorded()
     << "\n";
  os << "attribution: " << AttributionTable::Global().size() << " queries, "
     << AttributionTable::Global().evictions() << " evictions\n";
  Tracer& tracer = Tracer::Global();
  os << "tracer: " << (tracer.enabled() ? "enabled" : "disabled")
     << " recorded=" << tracer.recorded() << " dropped=" << tracer.dropped()
     << "\n";
  // Thread-pool WorkerStatsSnapshot, as published by the pool's sample
  // hook (obs sits below util, so the registry is the channel).
  os << "pool:\n";
  bool any_pool = false;
  for (const MetricSnapshot& m : Registry::Global().Snapshot()) {
    if (m.kind != MetricSnapshot::Kind::kGauge) continue;
    if (m.name.rfind("pool.", 0) != 0) continue;
    any_pool = true;
    os << "  " << m.name << ": " << static_cast<uint64_t>(m.value) << "\n";
  }
  if (!any_pool) os << "  (no pool registered)\n";
  return os.str();
}

std::string RenderQueryzHtml() {
  const std::vector<AttributionTable::Row> rows =
      AttributionTable::Global().Snapshot();
  std::string out;
  out +=
      "<!doctype html><html><head><title>mde /queryz</title></head><body>"
      "<h1>Per-query attribution</h1>"
      "<p><a href=\"/queryz?format=json\">json</a></p>"
      "<table border=\"1\" cellpadding=\"4\"><tr><th>query</th><th>tag</th>"
      "<th>cpu_ms</th><th>tasks</th><th>spans</th><th>rows_in</th>"
      "<th>rows_out</th><th>vg_draws</th><th>bundle_bytes</th>"
      "<th>cache_hits</th></tr>";
  for (const AttributionTable::Row& r : rows) {
    char cpu_ms[32];
    std::snprintf(cpu_ms, sizeof(cpu_ms), "%.3f",
                  static_cast<double>(r.cpu_ns) * 1e-6);
    out += "<tr><td><a href=\"/profilez?seconds=2&amp;query=";
    out += FingerprintHex(r.fingerprint);
    out += "\">";
    out += FingerprintHex(r.fingerprint);
    out += "</a></td><td>";
    HtmlEscapeInto(r.tag, &out);
    out += "</td><td>";
    out += cpu_ms;
    for (uint64_t v : {r.tasks, r.spans, r.rows_in, r.rows_out, r.vg_draws,
                       r.bundle_bytes, r.cache_hits}) {
      out += "</td><td>";
      out += std::to_string(v);
    }
    out += "</td></tr>";
  }
  out += "</table></body></html>";
  return out;
}

std::string RenderQueryzJson() {
  const std::vector<AttributionTable::Row> rows =
      AttributionTable::Global().Snapshot();
  std::string out = "{\"queries\":[";
  bool first = true;
  for (const AttributionTable::Row& r : rows) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"query\":\"";
    out += FingerprintHex(r.fingerprint);
    out += "\",\"tag\":\"";
    JsonEscape(r.tag, [&out](char c) { out.push_back(c); });
    out += "\",\"cpu_ns\":";
    out += std::to_string(r.cpu_ns);
    out += ",\"tasks\":";
    out += std::to_string(r.tasks);
    out += ",\"spans\":";
    out += std::to_string(r.spans);
    out += ",\"rows_in\":";
    out += std::to_string(r.rows_in);
    out += ",\"rows_out\":";
    out += std::to_string(r.rows_out);
    out += ",\"vg_draws\":";
    out += std::to_string(r.vg_draws);
    out += ",\"bundle_bytes\":";
    out += std::to_string(r.bundle_bytes);
    out += ",\"cache_hits\":";
    out += std::to_string(r.cache_hits);
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string DiagServer::Request::Param(const std::string& key) const {
  return DiagQueryParam(query, key);
}

DiagServer::DiagServer() = default;

DiagServer::~DiagServer() { Stop(); }

bool DiagServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_relaxed)) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  handler_threads_.reserve(kHandlerThreads);
  for (int i = 0; i < kHandlerThreads; ++i) {
    handler_threads_.emplace_back([this] { HandlerLoop(); });
  }
  return true;
}

void DiagServer::Stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  // Unblock accept(2): shutdown alone does not wake a blocked accept on
  // all kernels, so close the fd too — the accept thread re-checks
  // stopping_ on any error.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }
  listen_fd_ = -1;
  port_.store(0, std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
}

void DiagServer::AcceptLoop() {
  SetCurrentThreadName("diag-accept");
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stopping_) {
        if (fd >= 0) ::close(fd);
        return;
      }
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket is gone
    }
    // Per-connection socket timeouts: a stalled client times out instead of
    // pinning a handler thread forever.
    struct timeval rcv_to = {5, 0};
    struct timeval snd_to = {10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rcv_to, sizeof(rcv_to));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &snd_to, sizeof(snd_to));
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_fds_.size() <
          static_cast<size_t>(kAcceptBacklog)) {
        pending_fds_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Bounded backlog: shed load on the accept thread rather than queue
      // unboundedly (a /profilez storm blocks handlers for seconds each).
      SendResponse(fd, 503, "text/plain; charset=utf-8", "busy\n");
      ::close(fd);
    }
  }
}

void DiagServer::HandlerLoop() {
  SetCurrentThreadName("diag-handler");
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_ || !pending_fds_.empty(); });
      if (stopping_) return;
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void DiagServer::HandleConnection(int fd) {
  // Read until the end of the request head (GET only; bodies ignored).
  std::string head;
  char buf[2048];
  while (head.size() < 16384 &&
         head.find("\r\n\r\n") == std::string::npos) {
    const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
    if (r <= 0) break;
    head.append(buf, static_cast<size_t>(r));
  }
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) {
    SendResponse(fd, 400, "text/plain; charset=utf-8", "bad request\n");
    return;
  }
  Request req;
  {
    const std::string line = head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1) {
      SendResponse(fd, 400, "text/plain; charset=utf-8", "bad request\n");
      return;
    }
    req.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const size_t q = target.find('?');
    if (q != std::string::npos) {
      req.query = target.substr(q + 1);
      target.resize(q);
    }
    req.path = UrlDecode(target);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  MDE_OBS_COUNT("http.requests", 1);
  const Response resp = Route(req);
  if (resp.status != 200) MDE_OBS_COUNT("http.errors", 1);
  SendResponse(fd, resp.status, resp.content_type, resp.body);
}

DiagServer::Response DiagServer::Route(const Request& req) {
  Response resp;
  if (req.method != "GET" && req.method != "HEAD") {
    resp.status = 400;
    resp.body = "only GET is served here\n";
    return resp;
  }
  if (req.path == "/") {
    resp.content_type = "text/html; charset=utf-8";
    resp.body = RenderIndex();
  } else if (req.path == "/healthz") {
    resp.body = "ok\n";
  } else if (req.path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = PrometheusText();
  } else if (req.path == "/statusz") {
    resp.body = RenderStatusz();
  } else if (req.path == "/queryz") {
    if (req.Param("format") == "json") {
      resp.content_type = "application/json";
      resp.body = RenderQueryzJson();
    } else {
      resp.content_type = "text/html; charset=utf-8";
      resp.body = RenderQueryzHtml();
    }
  } else if (req.path == "/tracez") {
    if (req.Param("format") == "json") {
      resp.content_type = "application/json";
      resp.body = Tracer::Global().ChromeTraceJson();
    } else {
      resp.body = Tracer::Global().FlameSummary();
      if (resp.body.empty()) {
        resp.body =
            "(no spans retained; tracing is off — the tracer only records "
            "when enabled)\n";
      }
    }
  } else if (req.path == "/flightz") {
    resp.content_type = "application/json";
    resp.body = FlightRecorder::Global().RenderJson("diag.flightz");
  } else if (req.path == "/profilez") {
    double seconds = 2.0;
    const std::string s = req.Param("seconds");
    if (!s.empty()) {
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || v <= 0.0) {
        resp.status = 400;
        resp.body = "bad seconds= value\n";
        return resp;
      }
      seconds = v;
    }
    uint64_t query_fp = 0;
    const std::string qs = req.Param("query");
    if (!qs.empty()) {
      query_fp = std::strtoull(qs.c_str(), nullptr, 0);
      if (query_fp == 0) {
        resp.status = 400;
        resp.body = "bad query= value (want 0x<fingerprint>)\n";
        return resp;
      }
    }
    int hz = Profiler::kDefaultHz;
    const std::string hzs = req.Param("hz");
    if (!hzs.empty()) hz = std::atoi(hzs.c_str());
    const bool query_roots = req.Param("queryroots") != "0";
    resp.body =
        Profiler::Global().CaptureFolded(seconds, query_fp, query_roots, hz);
  } else {
    DiagHandler handler;
    {
      DiagHandlerRegistry& reg = DiagHandlerRegistry::Global();
      std::lock_guard<std::mutex> lock(reg.mu);
      for (const DiagHandlerEntry& e : reg.entries) {
        if (e.path == req.path) {
          handler = e.handler;  // copy; invoked outside the lock
          break;
        }
      }
    }
    if (handler) {
      const DiagPage page = handler(req.query);
      resp.status = page.status;
      resp.content_type = page.content_type;
      resp.body = page.body;
    } else {
      resp.status = 404;
      resp.body = "not found\n";
    }
  }
  return resp;
}

DiagServer* DiagServer::MaybeStartFromEnv() {
  // The two knobs are independent: MDE_PROF_HZ alone runs the continuous
  // profiler headless (collectable in-process or by a later server start),
  // so the profiler can be priced without the server's threads running.
  static DiagServer* server = []() -> DiagServer* {
    const char* hz_env = std::getenv("MDE_PROF_HZ");
    if (hz_env != nullptr && *hz_env != '\0') {
      int hz = std::strcmp(hz_env, "default") == 0
                   ? Profiler::kDefaultHz
                   : std::atoi(hz_env);
      if (hz > 0 && Profiler::Global().Start(hz)) {
        std::fprintf(stderr, "mde: continuous profiler at %d Hz\n",
                     Profiler::Global().hz());
      }
    }
    const char* env = std::getenv("MDE_DIAG_PORT");
    if (env == nullptr || *env == '\0') return nullptr;
    char* end = nullptr;
    const long port = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || port < 0 || port > 65535) {
      std::fprintf(stderr, "mde: bad MDE_DIAG_PORT '%s' (want 0..65535)\n",
                   env);
      return nullptr;
    }
    auto* s = new DiagServer();  // leaked: serves for the process lifetime
    if (!s->Start(static_cast<uint16_t>(port))) {
      std::fprintf(stderr, "mde: could not bind MDE_DIAG_PORT %ld\n", port);
      delete s;
      return nullptr;
    }
    std::fprintf(stderr, "mde: diagnostics on http://127.0.0.1:%d\n",
                 s->port());
    return s;
  }();
  return server;
}

}  // namespace mde::obs
