#include "runtime/wire_plane.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "net/eventloop/event_loop.hpp"
#include "net/eventloop/udp_batch_socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lockdown::runtime {

struct WirePlane::Lane {
  net::UdpBatchSocket socket;
  net::EventLoop loop;
  std::thread thread;
  /// Receive buffers, permanently sized to datagram_capacity: recvmmsg
  /// writes over them in place and accepted ones are swapped out for
  /// arena replacements (never memset, never reallocated in steady
  /// state).
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<std::uint32_t> lengths;
  obs::Histogram* wait_hist = nullptr;   ///< epoll_wait ready-fd counts
  obs::Histogram* batch_hist = nullptr;  ///< datagrams per receive syscall
};

WirePlane::~WirePlane() { stop(); }

std::size_t WirePlane::lanes() const noexcept { return lanes_.size(); }

std::uint64_t WirePlane::datagrams() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->socket.datagrams();
  return total;
}

std::uint64_t WirePlane::syscalls() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->socket.syscalls();
  return total;
}

std::uint64_t WirePlane::kernel_drops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->socket.kernel_drops();
  return total;
}

std::uint64_t WirePlane::truncated() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->socket.truncated();
  return total;
}

int WirePlane::rcvbuf_bytes() const noexcept {
  int smallest = 0;
  for (const auto& lane : lanes_) {
    const int granted = lane->socket.rcvbuf_bytes();
    if (smallest == 0 || granted < smallest) smallest = granted;
  }
  return smallest;
}

void WirePlane::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& lane : lanes_) lane->loop.stop();
  for (auto& lane : lanes_) {
    if (lane->thread.joinable()) lane->thread.join();
  }
}

std::unique_ptr<WirePlane> WirePlane::create(const WirePlaneConfig& config,
                                             ShardedCollectorDaemon& daemon) {
  auto plane = std::unique_ptr<WirePlane>(new WirePlane());
  std::size_t want_lanes = std::max<std::size_t>(1, config.lanes);
  want_lanes = std::min(want_lanes, daemon.wire_lanes());
  // Graceful degradation: no SO_REUSEPORT means one socket, one lane,
  // still on the event loop.
  plane->reuseport_active_ =
      want_lanes > 1 && net::UdpBatchSocket::reuseport_supported();
  if (!plane->reuseport_active_) want_lanes = 1;

  const std::size_t batch =
      std::clamp<std::size_t>(config.batch_size, 1, 64);
  const std::size_t capacity =
      std::max<std::size_t>(config.datagram_capacity, 128);
  const std::size_t budget = std::max<std::size_t>(config.drain_budget, 1);

  std::uint16_t port = config.port;
  for (std::size_t i = 0; i < want_lanes; ++i) {
    net::UdpBatchSocketConfig sc;
    sc.port = port;
    sc.rcvbuf_bytes = config.rcvbuf_bytes;
    sc.reuseport = plane->reuseport_active_;
    sc.prefer_recvmmsg = config.prefer_recvmmsg;
    auto socket = net::UdpBatchSocket::bind_loopback(sc);
    if (!socket) return nullptr;
    port = socket->port();  // lane 0 may have taken a kernel-picked port
    auto lane = std::make_unique<Lane>();
    lane->socket = std::move(*socket);
    if (!lane->loop.valid()) return nullptr;
    lane->buffers.resize(batch);
    lane->lengths.resize(batch);
    for (auto& buf : lane->buffers) {
      buf = daemon.acquire_buffer(capacity);
      buf.resize(capacity);
    }
    if (config.metrics != nullptr) {
      const std::string label = "lane=\"" + std::to_string(i) + "\"";
      lane->wait_hist = &config.metrics->histogram(
          "eventloop_wait_batch", obs::exponential_buckets(1, 2, 7), label,
          "Ready fds returned per epoll_wait on this wire lane");
      lane->batch_hist = &config.metrics->histogram(
          "wire_receive_batch", obs::exponential_buckets(1, 2, 8), label,
          "Datagrams delivered per receive syscall on this wire lane");
    }
    plane->lanes_.push_back(std::move(lane));
  }
  plane->port_ = port;

  for (std::size_t i = 0; i < plane->lanes_.size(); ++i) {
    Lane& lane = *plane->lanes_[i];
    ShardedCollectorDaemon* d = &daemon;
    const std::size_t lane_index = i;
    lane.loop.set_on_wait([&lane](std::size_t ready,
                                  std::chrono::nanoseconds waited) {
      static const std::uint32_t wait_span =
          obs::Tracer::instance().intern("eventloop", "loop.wait");
      if (lane.wait_hist != nullptr) {
        lane.wait_hist->observe(static_cast<double>(ready));
      }
      if (ready > 0) {
        const std::uint64_t t1 = obs::trace_now_ns();
        const std::uint64_t dur =
            static_cast<std::uint64_t>(waited.count() < 0 ? 0 : waited.count());
        obs::Tracer::instance().emit(wait_span, t1 - dur, t1, ready);
      }
    });
    lane.loop.add(
        lane.socket.fd(), EPOLLIN | EPOLLET,
        [&lane, d, lane_index, batch, capacity,
         budget](std::uint32_t) -> net::EventLoop::DrainResult {
          TRACE_SPAN_NAMED(dispatch_span, "eventloop", "loop.dispatch");
          std::size_t dispatched = 0;
          for (std::size_t round = 0; round < budget; ++round) {
            const std::uint64_t t0 = obs::trace_now_ns();
            const std::size_t n = lane.socket.receive_batch(
                std::span<std::vector<std::uint8_t>>(lane.buffers.data(),
                                                     batch),
                std::span<std::uint32_t>(lane.lengths.data(), batch));
            // One arrival stamp per receive syscall: every datagram the
            // batch delivered was already in the kernel queue at this
            // instant, so the stamp is the wire-arrival time the latency
            // watermarks measure from (obs/watermark.hpp).
            const std::uint64_t arrival_ns = n > 0 ? obs::trace_now_ns() : 0;
            if (lane.batch_hist != nullptr && n > 0) {
              lane.batch_hist->observe(static_cast<double>(n));
            }
            for (std::size_t k = 0; k < n; ++k) {
              // Zero-copy hand-off: the kernel-filled buffer rides the
              // ring to the shard worker; its replacement comes from the
              // arena those workers recycle into.
              d->ingest_owned(lane_index, std::move(lane.buffers[k]),
                              lane.lengths[k], arrival_ns);
              lane.buffers[k] = d->acquire_buffer(capacity);
              lane.buffers[k].resize(capacity);
            }
            if (n > 0) {
              static const std::uint32_t drain_span =
                  obs::Tracer::instance().intern("wire", "wire.drain");
              obs::Tracer::instance().emit(drain_span, t0, obs::trace_now_ns(),
                                           n);
            }
            dispatched += n;
            if (n < batch) {
              dispatch_span.set_arg(dispatched);
              return net::EventLoop::DrainResult::kDrained;
            }
          }
          dispatch_span.set_arg(dispatched);
          return net::EventLoop::DrainResult::kMoreWork;
        });
    // Periodic tick: keep the daemon's reorder board draining even when
    // the wire goes quiet (poll() is contention-safe from every lane).
    lane.loop.set_tick([d]() {
      d->poll();
      return std::chrono::milliseconds(5);
    });
    lane.thread = std::thread([&lane, lane_index] {
      obs::Tracer::instance().set_this_thread_name(
          "wire-" + std::to_string(lane_index));
      lane.loop.run();
    });
  }
  return plane;
}

/// Counters are single-writer per lane; summing them racily is fine for
/// gauges.
void publish_wire_plane_stats(obs::Registry& registry, const WirePlane& plane) {
  registry
      .gauge("collector_udp_kernel_drops", {},
             "Datagrams dropped by the kernel receive queues (SO_RXQ_OVFL), "
             "summed across wire-plane sockets")
      .set(static_cast<double>(plane.kernel_drops()));
  registry
      .gauge("collector_udp_rcvbuf_bytes", {},
             "Granted SO_RCVBUF size, the smallest across wire-plane sockets")
      .set(static_cast<double>(plane.rcvbuf_bytes()));
  registry
      .gauge("wire_plane_lanes", {},
             "Wire threads (reuseport sockets) in the event plane")
      .set(static_cast<double>(plane.lanes()));
  registry
      .gauge("wire_plane_datagrams", {}, "Datagrams ingested by the wire plane")
      .set(static_cast<double>(plane.datagrams()));
  registry
      .gauge("wire_plane_truncated", {},
             "Datagrams longer than the receive buffer (truncated)")
      .set(static_cast<double>(plane.truncated()));
  const std::uint64_t calls = plane.syscalls();
  registry
      .gauge("wire_datagrams_per_syscall", {},
             "Mean datagrams per receive syscall (the recvmmsg batching "
             "factor)")
      .set(calls == 0 ? 0.0
                      : static_cast<double>(plane.datagrams()) /
                            static_cast<double>(calls));
}

}  // namespace lockdown::runtime
