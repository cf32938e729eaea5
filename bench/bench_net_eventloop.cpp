// Ingest scaling of the async network plane (DESIGN.md §14): burst-drain
// throughput of the blocking path the plane replaced (one socket, one
// recvmsg per datagram -- flow::UdpSocket) against recvmmsg batch receive
// on one socket, and against the full plane shape of 4 SO_REUSEPORT
// sockets drained by 4 wire threads. Every mode receives identical
// 256-datagram bursts with zero kernel drops (a run that drops skips with
// an error rather than reporting an unfair ratio), so ns/op ratios are
// pure receive-path speedups: the bench_compare.py gate holds the 4-lane
// plane at >= 2x the blocking reference.
//
// The burst geometry is tuned to the kernel's accounting: ~128-byte
// payloads charge ~896 bytes of skb against SO_RCVBUF, so a 256-datagram
// burst (~230 KiB) fits the doubled grant of a 1 MiB request even where
// net.core.rmem_max clamps it to ~212992 (Linux default).
#include "bench_common.hpp"

#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "flow/udp_transport.hpp"
#include "net/eventloop/event_loop.hpp"
#include "net/eventloop/udp_batch_socket.hpp"

namespace {

using namespace lockdown;

constexpr std::size_t kBurst = 256;
constexpr std::size_t kPayloadBytes = 128;
constexpr std::size_t kLanes = 4;
constexpr int kRcvbufRequest = 1 << 20;

const std::vector<std::uint8_t>& payload() {
  static const std::vector<std::uint8_t> bytes(kPayloadBytes, 0x5a);
  return bytes;
}

bool deadline_passed(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

// ---------------------------------------------------------------------------
// Reference: a single blocking-drain socket -- one recvmsg per datagram
// through UdpSocket::receive(), which allocates (and zeroes) a fresh
// 64 KiB buffer for every datagram. This is the path the event plane
// replaced.

void BM_BlockingDrainReference(benchmark::State& state) {
  auto socket = flow::UdpSocket::bind_loopback(0, kRcvbufRequest);
  auto client = flow::UdpSocket::bind_loopback(0);
  if (!socket || !client) {
    state.SkipWithError("could not bind loopback sockets");
    return;
  }
  std::uint64_t received = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < kBurst; ++i) {
      benchmark::DoNotOptimize(client->send_to(socket->port(), payload()));
    }
    state.ResumeTiming();
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (got < kBurst) {
      if (auto datagram = socket->receive()) {
        benchmark::DoNotOptimize(datagram->data());
        ++got;
      } else if (deadline_passed(deadline)) {
        state.SkipWithError("burst not fully delivered (kernel drop)");
        return;
      }
    }
    received += got;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["kernel_drops"] =
      benchmark::Counter(static_cast<double>(socket->kernel_drops()));
}
BENCHMARK(BM_BlockingDrainReference)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// The same single socket drained through the allocation-free
// receive_into() path with one reused 64 KiB buffer: isolates the
// buffer-reuse win from the syscall-batching win below.

void BM_ReceiveIntoSingleSocket(benchmark::State& state) {
  auto socket = flow::UdpSocket::bind_loopback(0, kRcvbufRequest);
  auto client = flow::UdpSocket::bind_loopback(0);
  if (!socket || !client) {
    state.SkipWithError("could not bind loopback sockets");
    return;
  }
  std::vector<std::uint8_t> scratch(65536);
  std::uint64_t received = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < kBurst; ++i) {
      benchmark::DoNotOptimize(client->send_to(socket->port(), payload()));
    }
    state.ResumeTiming();
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (got < kBurst) {
      if (socket->receive_into(scratch)) {
        benchmark::DoNotOptimize(scratch.data());
        ++got;
      } else if (deadline_passed(deadline)) {
        state.SkipWithError("burst not fully delivered (kernel drop)");
        return;
      }
    }
    received += got;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["kernel_drops"] =
      benchmark::Counter(static_cast<double>(socket->kernel_drops()));
}
BENCHMARK(BM_ReceiveIntoSingleSocket)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// One socket, recvmmsg batches: isolates the syscall-batching win from the
// sharding win.

void BM_BatchDrainSingleSocket(benchmark::State& state) {
  net::UdpBatchSocketConfig config;
  config.rcvbuf_bytes = kRcvbufRequest;
  auto socket = net::UdpBatchSocket::bind_loopback(config);
  auto client = flow::UdpSocket::bind_loopback(0);
  if (!socket || !client) {
    state.SkipWithError("could not bind loopback sockets");
    return;
  }
  std::vector<std::vector<std::uint8_t>> buffers(
      64, std::vector<std::uint8_t>(512));
  std::vector<std::uint32_t> lengths(64);
  std::uint64_t received = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t i = 0; i < kBurst; ++i) {
      benchmark::DoNotOptimize(client->send_to(socket->port(), payload()));
    }
    state.ResumeTiming();
    std::size_t got = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (got < kBurst) {
      got += socket->receive_batch(buffers, lengths);
      if (got < kBurst && deadline_passed(deadline)) {
        state.SkipWithError("burst not fully delivered (kernel drop)");
        return;
      }
    }
    received += got;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["kernel_drops"] =
      benchmark::Counter(static_cast<double>(socket->kernel_drops()));
  state.counters["datagrams_per_syscall"] = benchmark::Counter(
      socket->syscalls() == 0
          ? 0.0
          : static_cast<double>(socket->datagrams()) /
                static_cast<double>(socket->syscalls()));
}
BENCHMARK(BM_BatchDrainSingleSocket)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// The full plane shape: 4 reuseport sockets, each drained by its own
// event-loop wire thread that *blocks* in epoll_wait when idle (the
// production WirePlane shape -- spinning lanes would oversubscribe small
// machines). Clients spread across many source ports so the kernel's
// 4-tuple hash distributes the burst over the lanes.

void BM_BatchDrainReuseport4(benchmark::State& state) {
  if (!net::UdpBatchSocket::reuseport_supported()) {
    state.SkipWithError("SO_REUSEPORT not supported");
    return;
  }
  struct Lane {
    net::UdpBatchSocket socket;
    std::unique_ptr<net::EventLoop> loop;
    std::thread thread;
  };
  std::vector<Lane> lanes;
  std::atomic<std::uint64_t> delivered{0};
  net::UdpBatchSocketConfig config;
  config.reuseport = true;
  config.rcvbuf_bytes = kRcvbufRequest;
  for (std::size_t i = 0; i < kLanes; ++i) {
    auto socket = net::UdpBatchSocket::bind_loopback(config);
    if (!socket) {
      state.SkipWithError("could not bind reuseport sibling");
      return;
    }
    config.port = socket->port();
    lanes.push_back(
        Lane{std::move(*socket), std::make_unique<net::EventLoop>(), {}});
  }
  for (auto& lane : lanes) {
    if (!lane.loop->valid()) {
      state.SkipWithError("could not create event loop");
      return;
    }
    lane.loop->add(
        lane.socket.fd(), EPOLLIN | EPOLLET,
        [&lane, &delivered](std::uint32_t) {
          thread_local std::vector<std::vector<std::uint8_t>> buffers(
              64, std::vector<std::uint8_t>(512));
          thread_local std::vector<std::uint32_t> lengths(64);
          for (;;) {
            const std::size_t n = lane.socket.receive_batch(buffers, lengths);
            if (n == 0) return net::EventLoop::DrainResult::kDrained;
            delivered.fetch_add(n, std::memory_order_release);
          }
        });
    lane.thread = std::thread([&lane] { lane.loop->run(); });
  }
  std::vector<flow::UdpSocket> clients;
  for (std::size_t i = 0; i < 16; ++i) {
    auto client = flow::UdpSocket::bind_loopback(0);
    if (!client) {
      state.SkipWithError("could not bind client socket");
      return;
    }
    clients.push_back(std::move(*client));
  }

  std::uint64_t received = 0;
  bool failed = false;
  for (auto _ : state) {
    state.PauseTiming();
    const std::uint64_t base = delivered.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < kBurst; ++i) {
      benchmark::DoNotOptimize(
          clients[i % clients.size()].send_to(config.port, payload()));
    }
    state.ResumeTiming();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (delivered.load(std::memory_order_acquire) - base < kBurst) {
      if (deadline_passed(deadline)) {
        state.SkipWithError("burst not fully delivered (kernel drop)");
        failed = true;
        break;
      }
      std::this_thread::yield();
    }
    if (failed) break;
    received += kBurst;
  }
  for (auto& lane : lanes) lane.loop->stop();
  for (auto& lane : lanes) lane.thread.join();
  if (failed) return;
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  std::uint64_t drops = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t datagrams = 0;
  for (const auto& lane : lanes) {
    drops += lane.socket.kernel_drops();
    syscalls += lane.socket.syscalls();
    datagrams += lane.socket.datagrams();
  }
  state.counters["kernel_drops"] =
      benchmark::Counter(static_cast<double>(drops));
  state.counters["datagrams_per_syscall"] = benchmark::Counter(
      syscalls == 0 ? 0.0
                    : static_cast<double>(datagrams) /
                          static_cast<double>(syscalls));
}
BENCHMARK(BM_BatchDrainReuseport4)->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Reproduction-style print: the syscall-batching factor at a glance.

void print_event_plane_summary() {
  std::cout << "Async event plane ingest modes (burst=" << kBurst
            << " datagrams of " << kPayloadBytes << " B):\n";
  std::cout << "  recvmmsg available:   "
            << (net::UdpBatchSocket::batch_receive_supported() ? "yes" : "no")
            << "\n";
  std::cout << "  SO_REUSEPORT support: "
            << (net::UdpBatchSocket::reuseport_supported() ? "yes" : "no")
            << "\n";

  net::UdpBatchSocketConfig config;
  config.rcvbuf_bytes = kRcvbufRequest;
  auto socket = net::UdpBatchSocket::bind_loopback(config);
  auto client = flow::UdpSocket::bind_loopback(0);
  if (!socket || !client) {
    std::cout << "  (loopback sockets unavailable; skipping probe)\n\n";
    return;
  }
  for (std::size_t i = 0; i < kBurst; ++i) {
    (void)client->send_to(socket->port(), payload());
  }
  std::vector<std::vector<std::uint8_t>> buffers(
      64, std::vector<std::uint8_t>(512));
  std::vector<std::uint32_t> lengths(64);
  std::size_t got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (got < kBurst && !deadline_passed(deadline)) {
    got += socket->receive_batch(buffers, lengths);
  }
  std::cout << "  one queued burst drained in " << socket->syscalls()
            << " syscalls ("
            << bench::fmt(socket->syscalls() == 0
                              ? 0.0
                              : static_cast<double>(socket->datagrams()) /
                                    static_cast<double>(socket->syscalls()),
                          1)
            << " datagrams/syscall, " << socket->kernel_drops()
            << " kernel drops)\n\n";
}

}  // namespace

LOCKDOWN_BENCH_MAIN(print_event_plane_summary)
