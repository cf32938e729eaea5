// The async wire plane (DESIGN.md §14): N wire threads, each running an
// epoll event loop over its own SO_REUSEPORT socket, batch-receiving with
// recvmmsg directly into pooled PacketArena buffers and feeding a
// ShardedCollectorDaemon lane with zero-copy ingest.
//
// Layout: lane i = { reuseport socket i, EventLoop i, wire thread i }. The
// kernel hashes each exporter's 4-tuple onto one socket, so a source's
// datagrams arrive in order on one lane and the daemon's arrival-ticket
// merge keeps slices deterministic (see sharded_daemon.hpp). Edge-
// triggered readiness with a drain budget (batches per dispatch) keeps one
// hot socket from monopolizing its loop when the exposer or other fds
// share it; budget exhaustion re-queues the socket on the loop's ready
// list.
//
// This is the collector's only ingest path: one lane is the single-socket
// deployment, N lanes the scaled one, with the same watermark stages and
// the same slices either way.
//
// Observability: per-lane epoll_wait batch-size histogram
// (`eventloop_wait_batch`), receive batch-size histogram + live
// datagrams-per-syscall gauge (`wire_datagrams_per_syscall` -- the
// recvmmsg win at a glance), the socket-level `collector_udp_*` gauges
// (kernel drops summed across lane sockets, the smallest granted
// SO_RCVBUF), and TRACE_SPAN coverage for wait/drain/dispatch on every
// lane thread.
//
// Fallback: where SO_REUSEPORT is unavailable the plane runs one lane on a
// plain socket (reuseport_active() reports the degradation); where
// recvmmsg is unavailable receive_batch degrades to one recvmsg per
// datagram inside the same loop machinery.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/sharded_daemon.hpp"

namespace lockdown::obs {
class Registry;
}

namespace lockdown::runtime {

struct WirePlaneConfig {
  /// Port shared by every lane socket on 127.0.0.1 (0 = kernel picks; see
  /// port()).
  std::uint16_t port = 0;
  /// Wire threads / reuseport sockets. Clamped to the daemon's wire_lanes;
  /// degrades to 1 where SO_REUSEPORT is unsupported.
  std::size_t lanes = 1;
  /// Requested SO_RCVBUF per socket.
  int rcvbuf_bytes = 1 << 20;
  /// Datagrams per receive syscall (recvmmsg batch geometry, max 64).
  std::size_t batch_size = 64;
  /// Bytes per receive buffer: datagrams longer than this truncate (and
  /// count). NetFlow/IPFIX datagrams are MTU-sized; 2 KiB covers jumbo
  /// slack without bloating the arena.
  std::size_t datagram_capacity = 2048;
  /// Receive batches one readiness dispatch may drain before yielding the
  /// loop (the per-fd drain budget).
  std::size_t drain_budget = 8;
  /// Force the one-recvmsg-per-datagram path (benchmarks/tests).
  bool prefer_recvmmsg = true;
  /// Optional registry for the loop metrics above. Must outlive the plane.
  obs::Registry* metrics = nullptr;
};

class WirePlane {
 public:
  /// Bind the sockets and start one event-loop thread per lane, ingesting
  /// into `daemon` (which must outlive the plane and have wire_lanes >=
  /// the effective lane count). Null when no socket could be bound.
  [[nodiscard]] static std::unique_ptr<WirePlane> create(
      const WirePlaneConfig& config, ShardedCollectorDaemon& daemon);

  ~WirePlane();
  WirePlane(const WirePlane&) = delete;
  WirePlane& operator=(const WirePlane&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::size_t lanes() const noexcept;
  /// False when the plane degraded to a single plain socket.
  [[nodiscard]] bool reuseport_active() const noexcept {
    return reuseport_active_;
  }

  /// Datagrams ingested across all lanes.
  [[nodiscard]] std::uint64_t datagrams() const noexcept;
  /// Receive syscalls across all lanes (datagrams()/syscalls() is the
  /// batching factor).
  [[nodiscard]] std::uint64_t syscalls() const noexcept;
  /// Kernel receive-queue overflow, aggregated across every lane socket
  /// (each socket's SO_RXQ_OVFL counter is cumulative; the sum is the
  /// plane's total loss to full buffers).
  [[nodiscard]] std::uint64_t kernel_drops() const noexcept;
  /// Datagrams that arrived longer than datagram_capacity.
  [[nodiscard]] std::uint64_t truncated() const noexcept;
  /// The SO_RCVBUF the kernel granted, as the minimum across lane sockets
  /// (the lane that overflows first). Linux doubles the request.
  [[nodiscard]] int rcvbuf_bytes() const noexcept;

  /// Stop every loop and join the wire threads. Idempotent; the
  /// destructor calls it. The daemon is NOT flushed -- callers stop the
  /// plane first, then flush the daemon.
  void stop();

 private:
  struct Lane;
  WirePlane() = default;

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::uint16_t port_ = 0;
  bool reuseport_active_ = false;
  std::atomic<bool> stopped_{false};
};

/// Publish the plane's socket-level stats as registry gauges:
/// `collector_udp_kernel_drops` (summed across lane sockets),
/// `collector_udp_rcvbuf_bytes` (the smallest grant), lane count, datagram
/// totals, truncations, and the live datagrams-per-syscall batching
/// factor. Call from a heartbeat or before_scrape hook.
void publish_wire_plane_stats(obs::Registry& registry, const WirePlane& plane);

}  // namespace lockdown::runtime
