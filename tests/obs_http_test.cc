#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mcdb/bundle.h"
#include "mcdb/mcdb.h"
#include "mcdb/vg_function.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/http.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/thread_slot.h"
#include "obs/trace.h"
#include "util/distributions.h"
#include "util/thread_pool.h"

namespace mde {
namespace {

using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Burns `seconds` of THREAD CPU time (not wall time) so profiler sample
/// counts — which are CPU-time driven — have a known expectation.
void SpinCpu(double seconds) {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  const double start = ts.tv_sec + ts.tv_nsec * 1e-9;
  volatile double sink = 0.0;
  for (;;) {
    for (int i = 0; i < 20000; ++i) sink = sink + i * 1e-9;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    if (ts.tv_sec + ts.tv_nsec * 1e-9 - start >= seconds) break;
  }
}

/// A blocking socket connected to the loopback diagnostics server, or -1.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Minimal blocking HTTP/1.1 GET against the loopback diagnostics server.
/// Returns the body; status code goes to `*status_out` (0 on socket
/// failure).
std::string HttpGet(int port, const std::string& target, int* status_out) {
  *status_out = 0;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
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

/// Sends `request` verbatim, half-closes the socket and reads the reply.
/// Returns the HTTP status, 0 when the server closed the connection without
/// one, or -1 when nothing arrived within 10 s (a hung handler).
int RawExchange(int port, const std::string& request) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return 0;
  timeval timeout = {10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  size_t sent = 0;
  while (sent < request.size()) {
    // The server may answer and close before it has read everything.
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string raw;
  char buf[4096];
  bool timed_out = false;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) timed_out = true;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (timed_out) return -1;
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
  return std::atoi(raw.c_str() + 9);
}

/// The paper's SBP stochastic table (same shape as the mcdb tests): a real
/// engine workload whose bundle generation fans out over a pool.
mcdb::MonteCarloDb MakeSbpDb(size_t patients) {
  mcdb::MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  EXPECT_TRUE(db.AddTable("PATIENTS", std::move(p)).ok());
  Table param{
      Schema({{"MEAN", DataType::kDouble}, {"STD", DataType::kDouble}})};
  param.Append({Value(120.0), Value(9.0)});
  EXPECT_TRUE(db.AddTable("SBP_PARAM", std::move(param)).ok());

  mcdb::StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<mcdb::NormalVg>();
  spec.param_binder = [](const Row&, const mcdb::DatabaseInstance& det)
      -> Result<Row> {
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

// ---------------------------------------------------------------------------
// Fatal-signal chaining. FIRST in the file on purpose: InstallCrashHandler
// is once-per-process, and the child must inherit a state where OUR handler
// was installed on top of the marker handler — no earlier test may have
// installed it already.
// ---------------------------------------------------------------------------

void MarkerSegvHandler(int) { ::_exit(42); }

TEST(ObsFatalChainTest, CrashHandlerChainsToPreviousAndDumps) {
  const std::string path = ::testing::TempDir() + "/obs_http_chain_flight.json";
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: a pre-existing SIGSEGV handler (the "application's" handler),
    // then ours on top. The crash must run our dump AND still reach the
    // application's handler — which exits 42 instead of dying by signal.
    ::setenv("MDE_FLIGHT_PATH", path.c_str(), 1);
    struct sigaction marker;
    std::memset(&marker, 0, sizeof(marker));
    marker.sa_handler = MarkerSegvHandler;
    ::sigemptyset(&marker.sa_mask);
    if (::sigaction(SIGSEGV, &marker, nullptr) != 0) ::_exit(3);
    obs::FlightRecorder::InstallCrashHandler();
    {
      obs::QueryScope scope("test.chain", 0xC0FFEEu);
      ::raise(SIGSEGV);
    }
    ::_exit(4);  // unreachable: the marker handler exits first
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal instead of "
                                    "chaining to the previous handler";
  EXPECT_EQ(WEXITSTATUS(status), 42);

  // The signal-path dump landed before the chain and parses as a flight
  // report carrying the live query context.
  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderFlightReport(json, obs::RunReportOptions{}, &report,
                                      &error))
      << error;
  EXPECT_NE(report.find("test.chain"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsFatalChainTest, CrashWithDefaultDispositionDiesBySignal) {
#if defined(__SANITIZE_THREAD__)
#define MDE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MDE_TEST_TSAN 1
#endif
#endif
#if defined(MDE_TEST_TSAN)
  // TSan installs its own SEGV reporter that exits the process instead of
  // letting the re-raised signal's default disposition kill it, so the
  // WIFSIGNALED half of this test cannot hold under TSan. The chained
  // variant above still runs (it exits via the marker handler first).
  GTEST_SKIP() << "default-disposition death is replaced by TSan's reporter";
#endif
  const std::string path = ::testing::TempDir() + "/obs_http_dfl_flight.json";
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // No previous handler: after the dump the process must still die by
    // SIGSEGV (default disposition re-raised), not exit cleanly. Reset the
    // disposition first, since AddressSanitizer installs a SIGSEGV handler
    // of its own.
    ::signal(SIGSEGV, SIG_DFL);
    ::setenv("MDE_FLIGHT_PATH", path.c_str(), 1);
    obs::FlightRecorder::InstallCrashHandler();
    ::raise(SIGSEGV);
    ::_exit(4);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  EXPECT_FALSE(ReadFile(path).empty());
  std::remove(path.c_str());
}

TEST(ObsFatalChainTest, SignalDumpEscapesAndBoundsHostileNames) {
  const std::string path =
      ::testing::TempDir() + "/obs_http_hostile_flight.json";
  std::remove(path.c_str());
  // Longer than the dump's stack buffer, with characters JSON must escape.
  const std::string long_name(700, 'n');
  const std::string thread_name = "a\"b\\" + long_name;
  static const std::string span_name = "span\"" + long_name;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv("MDE_FLIGHT_PATH", path.c_str(), 1);
    obs::FlightRecorder& rec = obs::FlightRecorder::Global();
    obs::SetCurrentThreadName(thread_name);
    obs::Context ctx;
    ctx.trace_id = 77;
    ctx.fingerprint = 0x5eedu;
    ctx.tag = "tag\"with\\quotes";
    obs::internal::Install(ctx);
    rec.RecordSpanOpen(span_name.c_str(), 1, 77, 2, 0);
    std::thread([&rec] {
      obs::SetCurrentThreadName("tab\there");
      rec.RecordSpanOpen("\"w\"", 2, 77, 3, 2);
    }).join();
    obs::FlightRecorder::DumpFromSignal("signal:test \"hostile\"");
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child crashed while dumping";

  const std::string json = ReadFile(path);
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderFlightReport(json, obs::RunReportOptions{}, &report,
                                      &error))
      << error << "\n" << json;
  EXPECT_NE(report.find("signal:test \"hostile\""), std::string::npos);
  EXPECT_NE(report.find(thread_name), std::string::npos);
  EXPECT_NE(report.find(span_name), std::string::npos);
  EXPECT_NE(report.find("tag\"with\\quotes"), std::string::npos);
  EXPECT_NE(report.find("tab here"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Diagnostics server.
// ---------------------------------------------------------------------------

TEST(DiagServerTest, EphemeralPortStartStop) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_FALSE(server.Start(0)) << "double Start must fail";
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.Stop();  // idempotent

  // Restartable on a fresh ephemeral port.
  ASSERT_TRUE(server.Start(0));
  EXPECT_GT(server.port(), 0);
  server.Stop();
}

TEST(DiagServerTest, ServesEndpointsWhileEngineRunsEightThreads) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  // 8 threads of real engine work (bundle generation under QueryScopes)
  // while the scrape runs — the server reads side-band state only.
  std::atomic<bool> stop{false};
  std::atomic<int> queries_done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&stop, &queries_done, t] {
      mcdb::MonteCarloDb db = MakeSbpDb(50);
      uint64_t rep = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        {
          obs::QueryScope scope("test.scrape",
                                0x9000u + static_cast<uint64_t>(t));
          auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0],
                                               "SBP", 4, /*seed=*/rep++,
                                               /*pool=*/nullptr);
          ASSERT_TRUE(bundles.ok());
        }
        queries_done.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // /queryz below must find a query, so wait until one has run: on a slow
  // build (sanitizers) the workers may not have started by the first scrape.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (queries_done.load(std::memory_order_acquire) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  int status = 0;
  EXPECT_EQ(HttpGet(port, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);

  const std::string metrics = HttpGet(port, "/metrics", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(metrics.find("mde_build_info{git_hash=\""), std::string::npos);
  EXPECT_NE(metrics.find("simd_tier=\""), std::string::npos);
  EXPECT_NE(metrics.find("mde_process_uptime_seconds"), std::string::npos);

  const std::string statusz = HttpGet(port, "/statusz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(statusz.find("git_hash"), std::string::npos);
  EXPECT_NE(statusz.find("uptime"), std::string::npos);

  const std::string queryz = HttpGet(port, "/queryz?format=json", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(queryz.find("\"queries\""), std::string::npos);
  EXPECT_NE(queryz.find("test.scrape"), std::string::npos);

  const std::string flightz = HttpGet(port, "/flightz", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(flightz.find("\"flight\""), std::string::npos);

  HttpGet(port, "/tracez", &status);
  EXPECT_EQ(status, 200);

  HttpGet(port, "/profilez?seconds=bogus", &status);
  EXPECT_EQ(status, 400);
  HttpGet(port, "/nosuch", &status);
  EXPECT_EQ(status, 404);

  EXPECT_GE(server.requests_served(), 8u);

  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  server.Stop();
}

TEST(DiagServerTest, HostileRequestHeadsGetClientErrorsOrClose) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  const std::string base =
      "GET /no-such-page?x=%41 HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::vector<std::string> heads = {
      "",                                // connect and hang up
      "GET /no-such-page HTTP/1.1\n\n",  // no CR
      "GET /no-such-page HTTP/1.1",      // no line end at all
      std::string("GET /a\0b HTTP/1.1\r\n\r\n", 22),
      std::string("\0\0\0\0\r\n\r\n", 8),
      "GET /" + std::string(20000, 'a') + " HTTP/1.1\r\n\r\n",  // > 16 KiB
      std::string(17000, 'x'),
      "GET /x% HTTP/1.1\r\n\r\n",
      "GET /x%4 HTTP/1.1\r\n\r\n",
      "GET /x%zz HTTP/1.1\r\n\r\n",
      "GET /x%-1 HTTP/1.1\r\n\r\n",
      "GET /x?seconds=% HTTP/1.1\r\n\r\n",
      "GET\r\n\r\n",
      "GET  HTTP/1.1\r\n\r\n",
      " \r\n\r\n",
  };
  std::mt19937 rng(20250);  // seeded, so a failing head replays
  for (int i = 0; i < 64; ++i) {
    heads.push_back(base.substr(0, rng() % base.size()));
  }
  for (int i = 0; i < 200; ++i) {
    std::string head = base;
    for (uint32_t f = 0, flips = 1 + rng() % 3; f < flips; ++f) {
      head[rng() % head.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    heads.push_back(head);
  }
  for (size_t i = 0; i < heads.size(); ++i) {
    const int status = RawExchange(port, heads[i]);
    EXPECT_TRUE(status == 0 || status == 400 || status == 404)
        << "head #" << i << " answered " << status;
  }

  int status = 0;
  EXPECT_EQ(HttpGet(port, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);
  server.Stop();
}

TEST(DiagServerTest, ConcurrentScrapersAllAnswered) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 16; ++i) {
    scrapers.emplace_back([port, &ok] {
      for (int j = 0; j < 8; ++j) {
        int status = 0;
        const std::string body = HttpGet(port, "/healthz", &status);
        // 503 shedding is an acceptable answer under burst; a hung or
        // dropped connection is not.
        if ((status == 200 && body == "ok\n") || status == 503) ++ok;
      }
    });
  }
  for (auto& s : scrapers) s.join();
  EXPECT_EQ(ok.load(), 16 * 8);
  server.Stop();
}

TEST(DiagServerTest, RegisteredHandlerRoutesQueryStringAndIndex) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  const uint64_t id = obs::RegisterDiagHandler(
      "/echoz",
      [](const std::string& query) {
        obs::DiagPage page;
        page.body = "echo:" + obs::DiagQueryParam(query, "msg");
        return page;
      },
      "<a href=\"/echoz\">/echoz</a> — test echo");

  int status = 0;
  EXPECT_EQ(HttpGet(port, "/echoz?msg=hello", &status), "echo:hello");
  EXPECT_EQ(status, 200);
  const std::string index = HttpGet(port, "/", &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(index.find("/echoz"), std::string::npos)
      << "registered pages must be advertised on the index";

  // Built-ins always win over a registered path.
  const uint64_t shadow = obs::RegisterDiagHandler(
      "/healthz", [](const std::string&) { return obs::DiagPage{}; });
  EXPECT_EQ(HttpGet(port, "/healthz", &status), "ok\n");
  obs::UnregisterDiagHandler(shadow);

  obs::UnregisterDiagHandler(id);
  HttpGet(port, "/echoz", &status);
  EXPECT_EQ(status, 404) << "unregistered pages must 404 again";
  server.Stop();
}

TEST(DiagServerTest, ThrottledReaderReceivesFullLargeBody) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();

  // A body far larger than any socket buffer: against the throttled reader
  // below the kernel send buffer fills and ::send returns short counts.
  // Before SendAll looped, the tail of the body was silently dropped —
  // exactly how large /metrics and /profilez scrapes got truncated.
  std::string big;
  big.reserve(4u << 20);
  uint64_t line = 0;
  while (big.size() < (4u << 20)) {
    big += "payload line ";
    big += std::to_string(line++);
    big += '\n';
  }
  const uint64_t id = obs::RegisterDiagHandler(
      "/bigz", [&big](const std::string&) {
        obs::DiagPage page;
        page.body = big;
        return page;
      });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Shrink the receive window BEFORE connect so the handshake advertises
  // it; combined with slow small reads this throttles the server's sender.
  int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req =
      "GET /bigz HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));

  std::string raw;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
    // ~2 KiB per 300 us is ~7 MB/s: slow enough to fill the send buffer,
    // fast enough to stay far inside the server's 10 s send timeout.
    ::usleep(300);
  }
  ::close(fd);

  const size_t hdr_end = raw.find("\r\n\r\n");
  ASSERT_NE(hdr_end, std::string::npos);
  const std::string headers = raw.substr(0, hdr_end);
  EXPECT_NE(headers.find("Content-Length: " + std::to_string(big.size())),
            std::string::npos)
      << headers;
  const std::string body = raw.substr(hdr_end + 4);
  ASSERT_EQ(body.size(), big.size())
      << "throttled reader got a truncated body";
  EXPECT_EQ(body, big);

  obs::UnregisterDiagHandler(id);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Thread slots: recycled across thread lifetimes, readable while threads
// exit.
// ---------------------------------------------------------------------------

TEST(ObsThreadSlotTest, SequentialThreadsRecycleSlots) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::Profiler& prof = obs::Profiler::Global();
  tracer.Clear();
  tracer.Enable();
  ASSERT_TRUE(prof.Start(obs::Profiler::kDefaultHz));
  const size_t slots_before = obs::ThreadSlotCount();
  for (int i = 0; i < 1000; ++i) {
    std::thread([i] {
      obs::SetCurrentThreadName("recycled-" + std::to_string(i));
      obs::QueryScope scope("test.recycle", 0x5107u);
      MDE_TRACE_SPAN("test.recycled_span");
    }).join();
  }
  prof.Stop();
  const std::string trace = tracer.ChromeTraceJson();
  const std::string flight =
      obs::FlightRecorder::Global().RenderJson("test.recycle");
  tracer.Disable();
  tracer.Clear();

  // One thread at a time, so each takes the slot the last one returned.
  EXPECT_LE(obs::ThreadSlotCount(), slots_before + 1);
  size_t lanes = 0;
  for (size_t pos = 0;
       (pos = trace.find("\"thread_name\"", pos)) != std::string::npos;
       ++pos) {
    ++lanes;
  }
  EXPECT_LE(lanes, obs::kMaxThreads);
  // Retained records show under the name of the slot's latest holder.
  EXPECT_NE(trace.find("recycled-999"), std::string::npos);
  EXPECT_EQ(trace.find("recycled-998"), std::string::npos);
  EXPECT_NE(flight.find("{\"thread\":\"recycled-999\",\"name\":"
                        "\"test.recycled_span\""),
            std::string::npos);
}

TEST(ObsThreadSlotTest, ThreadsExitWhileReadersScanSlots) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));
  const int port = server.port();
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::Profiler& prof = obs::Profiler::Global();
  tracer.Enable();
  ASSERT_TRUE(prof.Start(250));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.emplace_back([&stop, port] {
    while (!stop.load(std::memory_order_relaxed)) {
      int status = 0;
      const std::string body = HttpGet(port, "/flightz", &status);
      EXPECT_EQ(status, 200);
      EXPECT_NE(body.find("\"spans\""), std::string::npos);
    }
  });
  readers.emplace_back([&stop, &tracer] {
    while (!stop.load(std::memory_order_relaxed)) {
      tracer.Collect();
      EXPECT_NE(tracer.ChromeTraceJson().find("\"traceEvents\""),
                std::string::npos);
    }
  });
  readers.emplace_back([&stop, &prof] {
    while (!stop.load(std::memory_order_relaxed)) prof.Collect(0, 0);
  });

  std::vector<std::thread> spawners;
  for (int t = 0; t < 4; ++t) {
    spawners.emplace_back([t] {
      for (int i = 0; i < 100; ++i) {
        std::thread([t] {
          obs::SetCurrentThreadName("churn-" + std::to_string(t));
          obs::QueryScope scope("test.churn", 0xC400u + t);
          MDE_TRACE_SPAN("test.churn_span");
          SpinCpu(0.0005);
        }).join();
      }
    });
  }
  for (auto& s : spawners) s.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  prof.Stop();
  tracer.Disable();
  tracer.Clear();
  server.Stop();
  EXPECT_LE(obs::ThreadSlotCount(), obs::kMaxThreads);
}

// ---------------------------------------------------------------------------
// Profiler: scaling, filtering, folded format, determinism.
// ---------------------------------------------------------------------------

TEST(ProfilerTest, StartStopIdempotentAndRegistered) {
  obs::Profiler& prof = obs::Profiler::Global();
  ASSERT_TRUE(prof.Start(250));
  EXPECT_TRUE(prof.running());
  EXPECT_EQ(prof.hz(), 250);
  EXPECT_FALSE(prof.Start(97)) << "double Start must fail";
  prof.Stop();
  EXPECT_FALSE(prof.running());
  prof.Stop();  // idempotent
}

TEST(ProfilerTest, SampleCountScalesWithCpuTime) {
  obs::Profiler& prof = obs::Profiler::Global();
  prof.Reset();
  ASSERT_TRUE(prof.Start(250));

  const uint64_t t0 = obs::NowNanos();
  SpinCpu(0.2);
  const uint64_t t1 = obs::NowNanos();
  SpinCpu(0.6);
  const uint64_t t2 = obs::NowNanos();
  prof.Stop();

  const size_t short_window = prof.Collect(t0, t1).size();
  const size_t long_window = prof.Collect(t1, t2).size();
  // 0.2 s at 250 Hz expects ~50 samples, 0.6 s expects ~150. Bounds are
  // loose — CI machines jitter — but the 3x CPU ratio must show through.
  EXPECT_GT(short_window, 10u);
  EXPECT_GT(long_window, short_window * 2)
      << "short=" << short_window << " long=" << long_window;

  // Samples carry non-empty stacks.
  for (const auto& s : prof.Collect(t0, t2)) {
    EXPECT_FALSE(s.pcs.empty());
  }
}

TEST(ProfilerTest, FiltersByQueryFingerprint) {
  obs::Profiler& prof = obs::Profiler::Global();
  prof.Reset();
  ASSERT_TRUE(prof.Start(250));

  constexpr uint64_t kFp = 0xFEEDBEEF12345678u;
  const uint64_t t0 = obs::NowNanos();
  {
    obs::QueryScope scope("test.filter", kFp);
    SpinCpu(0.3);
  }
  const uint64_t t1 = obs::NowNanos();
  prof.Stop();

  const auto matching = prof.Collect(t0, t1, kFp);
  ASSERT_GT(matching.size(), 5u);
  for (const auto& s : matching) {
    EXPECT_EQ(s.fingerprint, kFp);
    ASSERT_NE(s.tag, nullptr);
    EXPECT_STREQ(s.tag, "test.filter");
  }
  EXPECT_TRUE(prof.Collect(t0, t1, 0xDEAD0000u).empty());
}

TEST(ProfilerTest, CpuSecondsReconcileWithAttribution) {
  obs::Profiler& prof = obs::Profiler::Global();
  prof.Reset();
  ASSERT_TRUE(prof.Start(250));

  constexpr uint64_t kFp = 0xAB12CD34u;
  const uint64_t t0 = obs::NowNanos();
  {
    obs::QueryScope scope("test.reconcile", kFp);
    SpinCpu(0.5);
  }
  const uint64_t t1 = obs::NowNanos();
  prof.Stop();

  const double est_s =
      static_cast<double>(prof.Collect(t0, t1, kFp).size()) / 250.0;
  // 0.5 s of spin at 250 Hz: sampling noise is ~sqrt(125)/125 ~ 9%, so a
  // 2x band is comfortably beyond flake territory while still proving the
  // estimate tracks real CPU.
  EXPECT_GT(est_s, 0.25);
  EXPECT_LT(est_s, 1.0);
}

/// Spins under a query scope `depth` calls below the caller. The volatile
/// read after the recursive call keeps every frame on the stack.
[[gnu::noinline]] int SpinAtDepth(int depth, uint64_t fp, double seconds) {
  volatile int frame = depth;
  if (depth == 0) {
    obs::QueryScope scope("test.depth", fp);
    SpinCpu(seconds);
    return 0;
  }
  return SpinAtDepth(depth - 1, fp, seconds) + frame;
}

TEST(ProfilerTest, DeepStacksAreCutToMaxFramesAndCounted) {
  obs::Profiler& prof = obs::Profiler::Global();
  prof.Reset();
  ASSERT_TRUE(prof.Start(250));
  constexpr uint64_t kShallowFp = 0x5A11u;
  constexpr uint64_t kDeepFp = 0xDEE9u;

  const uint64_t truncated0 = prof.samples_truncated();
  SpinAtDepth(0, kShallowFp, 0.2);
  const uint64_t truncated1 = prof.samples_truncated();
  SpinAtDepth(64, kDeepFp, 0.2);
  const uint64_t truncated2 = prof.samples_truncated();
  prof.Stop();

  const auto shallow = prof.Collect(0, 0, kShallowFp);
  ASSERT_GT(shallow.size(), 5u);
  for (const auto& s : shallow) {
    EXPECT_LT(s.pcs.size(), obs::Profiler::kMaxFrames);
  }
  EXPECT_EQ(truncated1, truncated0) << "a shallow stack is never cut";

  const auto deep = prof.Collect(0, 0, kDeepFp);
  ASSERT_GT(deep.size(), 5u);
  for (const auto& s : deep) {
    EXPECT_EQ(s.pcs.size(), obs::Profiler::kMaxFrames);
  }
  EXPECT_GE(truncated2 - truncated1, deep.size());

  // The export surfaces publish the count as a counter.
  obs::RunSampleHooks();
  EXPECT_EQ(obs::Registry::Global().counter("prof.truncated")->Value(),
            prof.samples_truncated());
}

TEST(ProfilerTest, FoldedOutputWellFormedAndReportable) {
  obs::Profiler& prof = obs::Profiler::Global();

  // Busy worker under a QueryScope so stacks get a query root.
  std::atomic<bool> stop{false};
  std::thread worker([&stop] {
    obs::QueryScope scope("test.folded", 0x0F01DEDu);
    while (!stop.load(std::memory_order_relaxed)) SpinCpu(0.05);
  });

  const std::string folded =
      prof.CaptureFolded(/*seconds=*/0.4, /*query_fp=*/0,
                         /*query_roots=*/true, /*hz=*/250);
  stop.store(true, std::memory_order_relaxed);
  worker.join();

  ASSERT_EQ(folded.compare(0, 14, "# mde_profile "), 0) << folded;
  EXPECT_NE(folded.find("hz=250"), std::string::npos);
  EXPECT_NE(folded.find("window_s="), std::string::npos);

  std::istringstream lines(folded);
  std::string line;
  size_t stacks = 0;
  uint64_t prev_count = ~0ull;
  bool saw_query_root = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    ++stacks;
    // Grammar: "frame;frame;...;frame count", count after the LAST space.
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* end = nullptr;
    const uint64_t count = std::strtoull(line.c_str() + sp + 1, &end, 10);
    ASSERT_GT(count, 0u) << line;
    ASSERT_EQ(*end, '\0') << line;
    EXPECT_LE(count, prev_count) << "counts must be descending";
    prev_count = count;
    const std::string stack = line.substr(0, sp);
    EXPECT_FALSE(stack.empty());
    if (stack.compare(0, 6, "query:") == 0) saw_query_root = true;
  }
  ASSERT_GT(stacks, 0u) << folded;
  EXPECT_TRUE(saw_query_root);

  // The folded text renders as an mde_report profile section.
  std::string report;
  std::string error;
  ASSERT_TRUE(obs::RenderProfileReport(folded, /*metrics_jsonl=*/"",
                                       obs::RunReportOptions{}, &report,
                                       &error))
      << error;
  EXPECT_NE(report.find("CPU profile"), std::string::npos);
  EXPECT_NE(report.find("Per-query samples"), std::string::npos);
}

TEST(ProfilerTest, ProfilezEndpointReturnsFoldedStacks) {
  obs::DiagServer server;
  ASSERT_TRUE(server.Start(0));

  std::atomic<bool> stop{false};
  std::thread worker([&stop] {
    obs::QueryScope scope("test.profilez", 0xBEEF01u);
    while (!stop.load(std::memory_order_relaxed)) SpinCpu(0.05);
  });

  int status = 0;
  const std::string body =
      HttpGet(server.port(), "/profilez?seconds=0.4&hz=250", &status);
  stop.store(true, std::memory_order_relaxed);
  worker.join();

  EXPECT_EQ(status, 200);
  ASSERT_EQ(body.compare(0, 14, "# mde_profile "), 0) << body;
  EXPECT_NE(body.find("query:0xbeef01"), std::string::npos) << body;

  // Query-filtered slice only keeps that fingerprint's stacks.
  stop.store(false, std::memory_order_relaxed);
  std::thread worker2([&stop] {
    obs::QueryScope scope("test.profilez2", 0xBEEF02u);
    while (!stop.load(std::memory_order_relaxed)) SpinCpu(0.05);
  });
  const std::string filtered = HttpGet(
      server.port(), "/profilez?seconds=0.4&hz=250&query=0xbeef02", &status);
  stop.store(true, std::memory_order_relaxed);
  worker2.join();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(filtered.find("query:0xbeef01"), std::string::npos);

  server.Stop();
}

TEST(ProfilerTest, EngineResultsBitIdenticalWithProfilerRunning) {
  mcdb::MonteCarloDb db = MakeSbpDb(300);
  constexpr size_t kReps = 48;

  auto run = [&db](size_t threads) {
    ThreadPool pool(threads);
    auto bundles = mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                         kReps, /*seed=*/13, &pool);
    EXPECT_TRUE(bundles.ok());
    auto agg = bundles.value().AggregateSum("SBP");
    EXPECT_TRUE(agg.ok());
    return std::move(agg).value();
  };

  const std::vector<double> baseline = run(4);  // profiler off

  obs::Profiler& prof = obs::Profiler::Global();
  ASSERT_TRUE(prof.Start(obs::Profiler::kDefaultHz));
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    const std::vector<double> sampled = run(threads);
    ASSERT_EQ(sampled.size(), baseline.size());
    // Bitwise, not approximate: memcmp over the IEEE-754 payloads.
    EXPECT_EQ(std::memcmp(baseline.data(), sampled.data(),
                          baseline.size() * sizeof(double)),
              0)
        << "profiler perturbed engine output at " << threads << " threads";
  }
  prof.Stop();
}

}  // namespace
}  // namespace mde
