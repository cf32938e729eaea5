// Loopback UDP sockets for exporter -> collector datagrams: the actual
// on-the-wire path of every NetFlow/IPFIX deployment. The exporter side of
// the examples, tests and benches sends through UdpExporterTransport; the
// collector side receives through runtime::WirePlane's batch sockets
// (net/eventloop/udp_batch_socket.hpp). UdpSocket's own receive calls are
// the one-datagram-per-syscall reference those batch sockets are measured
// against.
//
// Design notes (POSIX, IPv4 loopback):
//  * RAII socket ownership; sockets are created non-blocking so a receiver
//    can be polled from a single thread without hanging;
//  * send is best-effort like real NetFlow (UDP: no retransmission);
//    ENOBUFS/EAGAIN surface as counted drops, not exceptions;
//  * receive preserves datagram boundaries (one recvmsg per datagram).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lockdown::flow {

/// RAII wrapper around a bound UDP socket.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Bind a non-blocking UDP socket on 127.0.0.1. Port 0 lets the kernel
  /// choose; the chosen port is then available via port(). nullopt on error.
  ///
  /// `rcvbuf_bytes` requests an explicit SO_RCVBUF (0 = kernel default); a
  /// flow collector that cannot keep up first loses datagrams in this
  /// buffer, so sizing it -- and watching the drop counter below -- is part
  /// of deploying one. The kernel may round the request (Linux doubles it);
  /// the granted size is available via rcvbuf_bytes().
  [[nodiscard]] static std::optional<UdpSocket> bind_loopback(std::uint16_t port = 0,
                                                              int rcvbuf_bytes = 0);

  /// The locally bound port (0 if not bound).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// The receive buffer size the kernel actually granted at bind time.
  [[nodiscard]] int rcvbuf_bytes() const noexcept { return rcvbuf_; }

  /// Datagrams the kernel dropped on this socket's receive queue (buffer
  /// full), as reported by SO_RXQ_OVFL ancillary data: the receive-side
  /// counterpart of UdpExporterTransport::dropped(). The counter is
  /// cumulative and updates as queued datagrams are received, so it can lag
  /// a burst until the next successfully delivered datagram. Always 0 on
  /// platforms without SO_RXQ_OVFL.
  [[nodiscard]] std::uint64_t kernel_drops() const noexcept { return kernel_drops_; }

  /// Send one datagram to 127.0.0.1:dest_port. Returns false on any
  /// failure (caller counts it as a drop).
  [[nodiscard]] bool send_to(std::uint16_t dest_port,
                             std::span<const std::uint8_t> datagram) const;

  /// Receive one datagram into a caller-provided buffer (non-blocking):
  /// the allocation-free receive path. Returns the datagram's length
  /// (clamped to buffer.size(); longer datagrams are truncated, so size
  /// the buffer at 64 KiB to cover any UDP payload); nullopt when the
  /// queue is empty.
  [[nodiscard]] std::optional<std::size_t> receive_into(
      std::span<std::uint8_t> buffer) const;

  /// Receive one datagram if available (non-blocking); nullopt when the
  /// queue is empty. Allocates per datagram -- hot paths use
  /// receive_into() with a reused buffer instead.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> receive() const;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  int rcvbuf_ = 0;
  // Updated from SO_RXQ_OVFL ancillary data inside receive(), which stays
  // const for callers polling an otherwise-unchanged socket.
  mutable std::uint64_t kernel_drops_ = 0;
};

/// Counted best-effort sender for export packets.
class UdpExporterTransport {
 public:
  /// nullopt if no local socket could be created.
  [[nodiscard]] static std::optional<UdpExporterTransport> create(
      std::uint16_t collector_port);

  /// Send one packet; drops are counted, never thrown.
  void send(std::span<const std::uint8_t> packet);

  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  UdpExporterTransport(UdpSocket socket, std::uint16_t port)
      : socket_(std::move(socket)), collector_port_(port) {}
  UdpSocket socket_;
  std::uint16_t collector_port_;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace lockdown::flow
