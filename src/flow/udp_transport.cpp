#include "flow/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

namespace lockdown::flow {

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), port_(std::exchange(other.port_, 0)),
      rcvbuf_(std::exchange(other.rcvbuf_, 0)),
      kernel_drops_(std::exchange(other.kernel_drops_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    rcvbuf_ = std::exchange(other.rcvbuf_, 0);
    kernel_drops_ = std::exchange(other.kernel_drops_, 0);
  }
  return *this;
}

std::optional<UdpSocket> UdpSocket::bind_loopback(std::uint16_t port,
                                                  int rcvbuf_bytes) {
  UdpSocket s;
  s.fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (s.fd_ < 0) return std::nullopt;

  // Non-blocking: collectors poll from one thread.
  const int flags = ::fcntl(s.fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(s.fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return std::nullopt;
  }

  if (rcvbuf_bytes > 0 &&
      ::setsockopt(s.fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof(rcvbuf_bytes)) < 0) {
    return std::nullopt;
  }
  socklen_t rcvbuf_len = sizeof(s.rcvbuf_);
  (void)::getsockopt(s.fd_, SOL_SOCKET, SO_RCVBUF, &s.rcvbuf_, &rcvbuf_len);

#ifdef SO_RXQ_OVFL
  // Ask the kernel to report receive-queue overflows as ancillary data so
  // collector-side losses are observable, not silent.
  const int one = 1;
  (void)::setsockopt(s.fd_, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
#endif

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(s.fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return std::nullopt;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(s.fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    return std::nullopt;
  }
  s.port_ = ntohs(bound.sin_port);
  return s;
}

bool UdpSocket::send_to(std::uint16_t dest_port,
                        std::span<const std::uint8_t> datagram) const {
  if (fd_ < 0) return false;
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dest.sin_port = htons(dest_port);
  const ssize_t sent =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&dest), sizeof(dest));
  return sent == static_cast<ssize_t>(datagram.size());
}

std::optional<std::size_t> UdpSocket::receive_into(
    std::span<std::uint8_t> buffer) const {
  if (fd_ < 0 || buffer.empty()) return std::nullopt;
  iovec iov{buffer.data(), buffer.size()};
  alignas(cmsghdr) std::uint8_t control[CMSG_SPACE(sizeof(std::uint32_t))];
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  const ssize_t n = ::recvmsg(fd_, &msg, 0);
  if (n < 0) return std::nullopt;  // EAGAIN: queue empty
#ifdef SO_RXQ_OVFL
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr; c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      std::uint32_t dropped = 0;
      std::memcpy(&dropped, CMSG_DATA(c), sizeof(dropped));
      kernel_drops_ = dropped;  // cumulative since the socket was created
    }
  }
#endif
  return static_cast<std::size_t>(n);
}

std::optional<std::vector<std::uint8_t>> UdpSocket::receive() const {
  // NetFlow/IPFIX datagrams fit in one MTU-ish read; 64 KiB covers any UDP
  // payload.
  std::vector<std::uint8_t> buf(65536);
  const std::optional<std::size_t> n = receive_into(buf);
  if (!n) return std::nullopt;
  buf.resize(*n);
  return buf;
}

std::optional<UdpExporterTransport> UdpExporterTransport::create(
    std::uint16_t collector_port) {
  auto socket = UdpSocket::bind_loopback(0);
  if (!socket) return std::nullopt;
  return UdpExporterTransport(std::move(*socket), collector_port);
}

void UdpExporterTransport::send(std::span<const std::uint8_t> packet) {
  if (socket_.send_to(collector_port_, packet)) {
    ++sent_;
  } else {
    ++dropped_;  // best-effort, like real NetFlow over UDP
  }
}

}  // namespace lockdown::flow
