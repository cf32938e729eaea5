// Span tracer (obs/trace.hpp) and HTTP exposer (obs/http_exposer.hpp):
// ring wrap/overwrite semantics, dropped-span accounting, multi-thread
// drains, interned-name stability, Chrome JSON shape, and the exposer's
// routes over a real loopback socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exposer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lockdown::obs {
namespace {

// --- TraceRing -------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1, 0).capacity(), 2u);
  EXPECT_EQ(TraceRing(8, 0).capacity(), 8u);
  EXPECT_EQ(TraceRing(9, 0).capacity(), 16u);
  EXPECT_EQ(TraceRing(1000, 0).capacity(), 1024u);
}

TEST(TraceRing, DrainReturnsSpansInPushOrder) {
  TraceRing ring(8, 7);
  ring.push(1, 100, 200, 11);
  ring.push(2, 200, 300, 22);
  std::vector<SpanEvent> out;
  EXPECT_EQ(ring.drain(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name_id, 1u);
  EXPECT_EQ(out[0].tid, 7u);
  EXPECT_EQ(out[0].t_start_ns, 100u);
  EXPECT_EQ(out[0].t_end_ns, 200u);
  EXPECT_EQ(out[0].arg, 11u);
  EXPECT_EQ(out[1].name_id, 2u);
  // A second drain sees nothing new.
  EXPECT_EQ(ring.drain(out), 0u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(TraceRing, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(4, 0);
  ASSERT_EQ(ring.capacity(), 4u);
  for (std::uint32_t i = 0; i < 10; ++i) ring.push(i, i, i + 1, 0);
  // 10 pushes into 4 slots: the 6 oldest were overwritten undrained.
  EXPECT_EQ(ring.dropped(), 6u);
  std::vector<SpanEvent> out;
  EXPECT_EQ(ring.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  // The survivors are the newest four, oldest first.
  EXPECT_EQ(out[0].name_id, 6u);
  EXPECT_EQ(out[3].name_id, 9u);
}

TEST(TraceRing, DrainedSpansAreNeverCountedDropped) {
  TraceRing ring(4, 0);
  std::vector<SpanEvent> out;
  for (std::uint32_t round = 0; round < 8; ++round) {
    ring.push(round, 0, 1, 0);
    ring.drain(out);
  }
  // Every span was consumed before any overwrite.
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TraceRing, DiscardSkipsBacklogWithoutCopying) {
  TraceRing ring(8, 0);
  ring.push(1, 0, 1, 0);
  ring.push(2, 0, 1, 0);
  EXPECT_EQ(ring.pending(), 2u);
  ring.discard();
  EXPECT_EQ(ring.pending(), 0u);
  std::vector<SpanEvent> out;
  EXPECT_EQ(ring.drain(out), 0u);
  ring.push(3, 0, 1, 0);
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out.at(0).name_id, 3u);
}

TEST(TraceRing, ConcurrentWriterAndDrainerLoseNothingUndropped) {
  TraceRing ring(1024, 0);
  constexpr std::uint32_t kSpans = 200000;
  std::atomic<bool> done{false};
  std::vector<SpanEvent> out;
  std::thread writer([&] {
    for (std::uint32_t i = 1; i <= kSpans; ++i) ring.push(i, i, i + 1, i);
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) ring.drain(out);
  ring.drain(out);
  writer.join();
  // Every span was either drained or counted dropped; a torn read is
  // dropped-by-overwrite by definition (the writer lapped the reader).
  EXPECT_GE(out.size() + ring.dropped(), kSpans);
  // Drained name_ids are strictly increasing (order preserved, no dup).
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].name_id, out[i].name_id);
  }
}

// --- Tracer ----------------------------------------------------------------

TEST(TraceTracer, InternedNamesAreStableAndDeduplicated) {
  Tracer tracer(64);
  const std::uint32_t a = tracer.intern("cat", "name");
  const std::uint32_t b = tracer.intern("cat", "name");
  const std::uint32_t c = tracer.intern("cat", "other");
  const std::uint32_t d = tracer.intern("other", "name");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(c, d);
  EXPECT_NE(a, 0u);  // id 0 is reserved for "unknown"
  // Re-interning after unrelated activity still yields the same id.
  EXPECT_EQ(tracer.intern("cat", "name"), a);
}

TEST(TraceTracer, MultiThreadSpansLandInPerThreadRings) {
  Tracer tracer(256);
  const std::uint32_t id = tracer.intern("t", "work");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, id, t] {
      tracer.set_this_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t now = trace_now_ns();
        tracer.emit(id, now, now + 1, static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.threads(), static_cast<std::size_t>(kThreads));
  std::vector<SpanEvent> out;
  EXPECT_EQ(tracer.drain(out), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint32_t> tids;
  for (const SpanEvent& e : out) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TraceTracer, ExitedThreadsRingsAreReusedPastTheRetentionCap) {
  // Threads that come and go one after another (a daemon restarted per
  // run, a pool rebuilt per job): a tracer with a retention cap, like
  // Tracer::instance(), keeps the rings of the last kRetained exited
  // threads and reuses the oldest beyond that.
  constexpr std::size_t kRetained = 6;
  Tracer tracer(64, kRetained);
  const std::uint32_t id = tracer.intern("t", "churn");
  constexpr std::size_t kThreads = kRetained + 5;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::thread([&tracer, id, t] {
      tracer.set_this_thread_name("job-" + std::to_string(t));
      const std::uint64_t now = trace_now_ns();
      tracer.emit(id, now, now + 1, t);
    }).join();
  }
  EXPECT_EQ(tracer.threads(), kRetained);
  std::vector<SpanEvent> out;
  EXPECT_EQ(tracer.drain(out), kRetained);
  // The survivors are the most recent threads' spans; the five rings
  // taken over still held one undrained span each.
  std::set<std::uint64_t> args;
  for (const SpanEvent& e : out) args.insert(e.arg);
  EXPECT_EQ(*args.begin(), kThreads - kRetained);
  EXPECT_EQ(tracer.dropped(), kThreads - kRetained);
  // A live thread's ring is never taken over.
  std::thread([&tracer, id] {
    const std::uint64_t now = trace_now_ns();
    tracer.emit(id, now, now + 1, 99);
    std::thread([&tracer, id] {
      const std::uint64_t t = trace_now_ns();
      tracer.emit(id, t, t + 1, 100);
    }).join();
    tracer.emit(id, now, now + 2, 101);
  }).join();
  out.clear();
  tracer.drain(out);
  args.clear();
  for (const SpanEvent& e : out) args.insert(e.arg);
  EXPECT_EQ(args, (std::set<std::uint64_t>{99, 100, 101}));
}

TEST(TraceTracer, DefaultTracerKeepsEveryExitedThreadsRing) {
  // A run-scoped tracer exported once at the end keeps every span.
  Tracer tracer(64);
  const std::uint32_t id = tracer.intern("t", "run");
  constexpr std::size_t kThreads = Tracer::kRetainedRings + 4;
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::thread([&tracer, id, t] {
      const std::uint64_t now = trace_now_ns();
      tracer.emit(id, now, now + 1, t);
    }).join();
  }
  EXPECT_EQ(tracer.threads(), kThreads);
  std::vector<SpanEvent> out;
  EXPECT_EQ(tracer.drain(out), kThreads);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TraceTracer, DisabledTracerEmitsNothing) {
  Tracer tracer(64);
  const std::uint32_t id = tracer.intern("t", "off");
  tracer.set_enabled(false);
  tracer.emit(id, 1, 2, 3);
  tracer.set_enabled(true);
  tracer.emit(id, 4, 5, 6);
  std::vector<SpanEvent> out;
  EXPECT_EQ(tracer.drain(out), 1u);
  EXPECT_EQ(out.at(0).t_start_ns, 4u);
}

TEST(TraceTracer, ChromeJsonCarriesSpansThreadNamesAndDrops) {
  Tracer tracer(4);
  tracer.set_this_thread_name("main \"thread\"");  // exercises escaping
  const std::uint32_t id = tracer.intern("cat", "span");
  for (int i = 0; i < 6; ++i) {  // capacity 4: two spans dropped
    const std::uint64_t now = trace_now_ns();
    tracer.emit(id, now, now + 1500, 9);
  }
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"cat\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("main \\\"thread\\\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":\"2\""), std::string::npos);
  // Spans were consumed: the next export is empty of "X" events.
  EXPECT_EQ(tracer.chrome_json().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTracer, TraceSpanMacroStampsEnclosingScope) {
  Tracer& tracer = Tracer::instance();
  std::vector<SpanEvent> scratch;
  tracer.drain(scratch);  // flush spans from other tests / pipeline code
  {
    TRACE_SPAN("test", "macro.scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<SpanEvent> out;
  ASSERT_GE(tracer.drain(out), 1u);
  const std::uint32_t id = tracer.intern("test", "macro.scope");
  const auto it = std::find_if(out.begin(), out.end(), [id](const SpanEvent& e) {
    return e.name_id == id;
  });
  ASSERT_NE(it, out.end());
  EXPECT_GE(it->t_end_ns - it->t_start_ns, 1000000u);  // slept >= 1 ms
}

// --- HttpExposer -----------------------------------------------------------

/// One blocking HTTP/1.0-style request against 127.0.0.1:port; returns the
/// full response (headers + body), empty on any socket failure.
std::string http_get(std::uint16_t port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  (void)::send(fd, raw_request.data(), raw_request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExposer, ServesMetricsHealthzAndCountsRequests) {
  Registry registry;
  registry.counter("exposer_test_total", {}, "help text").add(3);
  bool scraped = false;
  HttpExposerConfig cfg;
  cfg.registry = &registry;
  cfg.health = [] { return std::string("{\"status\":\"ok\",\"custom\":1}\n"); };
  cfg.before_scrape = [&scraped] { scraped = true; };
  auto exposer = HttpExposer::create(std::move(cfg));
  ASSERT_NE(exposer, nullptr);
  ASSERT_NE(exposer->port(), 0u);

  const std::string metrics =
      http_get(exposer->port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("exposer_test_total 3"), std::string::npos);
  EXPECT_TRUE(scraped);

  const std::string health =
      http_get(exposer->port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("application/json"), std::string::npos);
  EXPECT_NE(health.find("\"custom\":1"), std::string::npos);

  EXPECT_EQ(exposer->requests(), 2u);
  exposer->stop();  // idempotent; destructor will call it again
}

TEST(HttpExposer, TraceEndpointReturnsChromeJson) {
  Tracer tracer(128);
  HttpExposerConfig cfg;
  cfg.tracer = &tracer;
  cfg.max_trace_window = std::chrono::milliseconds(50);
  auto exposer = HttpExposer::create(std::move(cfg));
  ASSERT_NE(exposer, nullptr);

  const std::uint32_t id = tracer.intern("t", "live");
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t now = trace_now_ns();
      tracer.emit(id, now, now + 10, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // ms=5000 is clamped to the 50 ms window, so this returns promptly.
  const std::string resp = http_get(
      exposer->port(), "GET /trace?ms=5000 HTTP/1.1\r\nHost: x\r\n\r\n");
  stop.store(true, std::memory_order_release);
  producer.join();
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(resp.find("\"name\":\"live\""), std::string::npos);
}

TEST(HttpExposer, RejectsMalformedUnknownAndNonGet) {
  Registry registry;
  HttpExposerConfig cfg;
  cfg.registry = &registry;
  auto exposer = HttpExposer::create(std::move(cfg));
  ASSERT_NE(exposer, nullptr);

  EXPECT_NE(http_get(exposer->port(), "not-even-http\r\n\r\n")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_get(exposer->port(), "GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(exposer->port(),
                     "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_EQ(exposer->requests(), 3u);
}

TEST(HttpExposer, PortConflictYieldsNullNotCrash) {
  Registry registry;
  HttpExposerConfig first_cfg;
  first_cfg.registry = &registry;
  auto first = HttpExposer::create(std::move(first_cfg));
  ASSERT_NE(first, nullptr);
  HttpExposerConfig second_cfg;
  second_cfg.registry = &registry;
  second_cfg.port = first->port();
  EXPECT_EQ(HttpExposer::create(std::move(second_cfg)), nullptr);
}

}  // namespace
}  // namespace lockdown::obs
