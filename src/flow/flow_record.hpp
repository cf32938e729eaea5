// The canonical flow record: what NetFlow v5/v9 and IPFIX records decode
// into and what every analysis consumes. Field set mirrors the subset of
// NetFlow/IPFIX information elements the paper's analyses need: 5-tuple,
// byte/packet counters, timestamps, interfaces (for the EDU directionality
// analysis) and optionally exporter-annotated src/dst AS numbers.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "net/asn.hpp"
#include "net/civil_time.hpp"
#include "net/ip.hpp"

namespace lockdown::flow {

/// IANA protocol numbers for the protocols the paper reasons about.
enum class IpProtocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
  kGre = 47,
  kEsp = 50,
};

[[nodiscard]] constexpr const char* to_string(IpProtocol p) noexcept {
  switch (p) {
    case IpProtocol::kIcmp: return "ICMP";
    case IpProtocol::kTcp: return "TCP";
    case IpProtocol::kUdp: return "UDP";
    case IpProtocol::kGre: return "GRE";
    case IpProtocol::kEsp: return "ESP";
  }
  return "?";
}

/// (protocol, destination port) pair -- the unit of the §4 port analysis.
/// GRE and ESP have no ports; they are represented with port 0.
struct PortKey {
  IpProtocol proto = IpProtocol::kTcp;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const PortKey&, const PortKey&) noexcept = default;

  [[nodiscard]] std::string to_string() const {
    using lockdown::flow::to_string;
    if (proto == IpProtocol::kGre || proto == IpProtocol::kEsp) {
      return to_string(proto);
    }
    return std::string(to_string(proto)) + "/" + std::to_string(port);
  }
};

/// One unidirectional flow.
struct FlowRecord {
  net::IpAddress src_addr;
  net::IpAddress dst_addr;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  IpProtocol protocol = IpProtocol::kTcp;
  std::uint8_t tcp_flags = 0;

  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;

  net::Timestamp first;  ///< flow start
  net::Timestamp last;   ///< flow end

  /// SNMP ifIndex of ingress/egress interface at the exporter. The EDU
  /// analysis uses these for directionality; 0 = unknown.
  std::uint16_t input_if = 0;
  std::uint16_t output_if = 0;

  /// Exporter-annotated origin AS of each endpoint (as real NetFlow
  /// deployments configure with `ip flow-export ... origin-as`).
  /// Asn(0) = unknown; analyses then fall back to prefix-trie lookup.
  net::Asn src_as;
  net::Asn dst_as;

  [[nodiscard]] PortKey service_port() const noexcept {
    // The service-identifying port of a flow is the lower of the two port
    // numbers in practice; our synthesizer always places the service port
    // in dst_port for request-direction flows and src_port for responses.
    // For analysis we use the numerically smaller non-zero port, matching
    // how the paper's per-port aggregations treat bidirectional traffic.
    if (protocol == IpProtocol::kGre || protocol == IpProtocol::kEsp ||
        protocol == IpProtocol::kIcmp) {
      return PortKey{protocol, 0};
    }
    const std::uint16_t a = src_port;
    const std::uint16_t b = dst_port;
    if (a == 0) return PortKey{protocol, b};
    if (b == 0) return PortKey{protocol, a};
    return PortKey{protocol, std::min(a, b)};
  }

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

}  // namespace lockdown::flow
