// Per-field encode between FlowRecord and template-described wire records,
// shared by the NetFlow v9 and IPFIX encoders, plus the exporter time
// context both directions use. Unknown fields are zero-filled on encode.
// Decoding runs the compiled DecodePlan (decode_plan.hpp); its per-field
// reference interpreter lives with the test oracles (tests/oracle/).
#pragma once

#include <cstdint>

#include "flow/flow_record.hpp"
#include "flow/template_fields.hpp"
#include "flow/wire.hpp"

namespace lockdown::flow {

/// Timestamp context: v9 stamps flows relative to exporter sysUptime; IPFIX
/// uses absolute seconds. `sys_uptime_ms`/`unix_secs` are only consulted
/// for the *Switched fields.
struct TimeContext {
  std::uint32_t sys_uptime_ms = 0;
  std::uint32_t unix_secs = 0;

  [[nodiscard]] std::uint32_t to_uptime(net::Timestamp t) const noexcept {
    const std::int64_t delta_ms =
        (static_cast<std::int64_t>(unix_secs) - t.seconds()) * 1000;
    // Clamp like a real exporter: sysUptime cannot exceed "now" nor run
    // before boot.
    if (delta_ms < 0) return sys_uptime_ms;
    if (delta_ms > sys_uptime_ms) return 0;
    return sys_uptime_ms - static_cast<std::uint32_t>(delta_ms);
  }
  [[nodiscard]] net::Timestamp from_uptime(std::uint32_t up_ms) const noexcept {
    const std::int64_t delta_s =
        (static_cast<std::int64_t>(sys_uptime_ms) - up_ms) / 1000;
    return net::Timestamp(static_cast<std::int64_t>(unix_secs) - delta_s);
  }
};

inline void encode_field(WireWriter& w, const FieldSpec& spec,
                         const FlowRecord& r, const TimeContext& tc) {
  auto write_uint = [&](std::uint64_t v) {
    switch (spec.length) {
      case 1: w.u8(static_cast<std::uint8_t>(v)); break;
      case 2: w.u16(static_cast<std::uint16_t>(v)); break;
      case 4: w.u32(static_cast<std::uint32_t>(v)); break;
      case 8: w.u64(v); break;
      default: w.zeros(spec.length); break;
    }
  };

  switch (spec.id) {
    case FieldId::kOctetDeltaCount: write_uint(r.bytes); break;
    case FieldId::kPacketDeltaCount: write_uint(r.packets); break;
    case FieldId::kProtocolIdentifier:
      write_uint(static_cast<std::uint8_t>(r.protocol));
      break;
    case FieldId::kTcpControlBits: write_uint(r.tcp_flags); break;
    case FieldId::kSourceTransportPort: write_uint(r.src_port); break;
    case FieldId::kDestinationTransportPort: write_uint(r.dst_port); break;
    case FieldId::kIngressInterface: write_uint(r.input_if); break;
    case FieldId::kEgressInterface: write_uint(r.output_if); break;
    case FieldId::kBgpSourceAsNumber: write_uint(r.src_as.value()); break;
    case FieldId::kBgpDestinationAsNumber: write_uint(r.dst_as.value()); break;
    case FieldId::kSourceIpv4Address:
      write_uint(r.src_addr.is_v4() ? r.src_addr.v4().value() : 0);
      break;
    case FieldId::kDestinationIpv4Address:
      write_uint(r.dst_addr.is_v4() ? r.dst_addr.v4().value() : 0);
      break;
    case FieldId::kSourceIpv6Address:
      if (r.src_addr.is_v6() && spec.length == 16) {
        w.bytes(r.src_addr.v6().bytes());
      } else {
        w.zeros(spec.length);
      }
      break;
    case FieldId::kDestinationIpv6Address:
      if (r.dst_addr.is_v6() && spec.length == 16) {
        w.bytes(r.dst_addr.v6().bytes());
      } else {
        w.zeros(spec.length);
      }
      break;
    case FieldId::kFirstSwitched: write_uint(tc.to_uptime(r.first)); break;
    case FieldId::kLastSwitched: write_uint(tc.to_uptime(r.last)); break;
    case FieldId::kFlowStartSeconds:
      write_uint(static_cast<std::uint32_t>(r.first.seconds()));
      break;
    case FieldId::kFlowEndSeconds:
      write_uint(static_cast<std::uint32_t>(r.last.seconds()));
      break;
    default: w.zeros(spec.length); break;
  }
}

}  // namespace lockdown::flow
