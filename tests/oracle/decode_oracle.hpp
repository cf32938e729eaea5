// Reference interpreter for template-described data records: one switch
// over the field id per field, per record -- the walk DecodePlan
// (flow/decode_plan.hpp) compiles away. Unknown fields are skipped, which
// is what RFC 7011 requires of collectors. The decode-plan differential
// tests and the decode bench's reference arm pin the plan against it.
#pragma once

#include <cstdint>

#include "flow/field_codec.hpp"
#include "flow/flow_record.hpp"
#include "flow/template_fields.hpp"
#include "flow/wire.hpp"

namespace lockdown::oracle {

/// Decode one field of `spec` from `rd` into `r`.
inline void decode_field(flow::WireReader& rd, const flow::FieldSpec& spec,
                         flow::FlowRecord& r, const flow::TimeContext& tc) {
  using flow::FieldId;
  using flow::IpProtocol;
  auto read_uint = [&]() -> std::uint64_t {
    switch (spec.length) {
      case 1: return rd.u8();
      case 2: return rd.u16();
      case 4: return rd.u32();
      case 8: return rd.u64();
      default: (void)rd.skip(spec.length); return 0;
    }
  };

  switch (spec.id) {
    case FieldId::kOctetDeltaCount: r.bytes = read_uint(); break;
    case FieldId::kPacketDeltaCount: r.packets = read_uint(); break;
    case FieldId::kProtocolIdentifier:
      r.protocol = static_cast<IpProtocol>(read_uint());
      break;
    case FieldId::kTcpControlBits:
      r.tcp_flags = static_cast<std::uint8_t>(read_uint());
      break;
    case FieldId::kSourceTransportPort:
      r.src_port = static_cast<std::uint16_t>(read_uint());
      break;
    case FieldId::kDestinationTransportPort:
      r.dst_port = static_cast<std::uint16_t>(read_uint());
      break;
    case FieldId::kIngressInterface:
      r.input_if = static_cast<std::uint16_t>(read_uint());
      break;
    case FieldId::kEgressInterface:
      r.output_if = static_cast<std::uint16_t>(read_uint());
      break;
    case FieldId::kBgpSourceAsNumber:
      r.src_as = net::Asn(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kBgpDestinationAsNumber:
      r.dst_as = net::Asn(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kSourceIpv4Address:
      r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kDestinationIpv4Address:
      r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kSourceIpv6Address:
      if (spec.length == 16) {
        net::Ipv6Address::Bytes b{};
        (void)rd.read_bytes(b);
        r.src_addr = net::Ipv6Address(b);
      } else {
        (void)rd.skip(spec.length);
      }
      break;
    case FieldId::kDestinationIpv6Address:
      if (spec.length == 16) {
        net::Ipv6Address::Bytes b{};
        (void)rd.read_bytes(b);
        r.dst_addr = net::Ipv6Address(b);
      } else {
        (void)rd.skip(spec.length);
      }
      break;
    case FieldId::kFirstSwitched:
      r.first = tc.from_uptime(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kLastSwitched:
      r.last = tc.from_uptime(static_cast<std::uint32_t>(read_uint()));
      break;
    case FieldId::kFlowStartSeconds:
      r.first = net::Timestamp(static_cast<std::int64_t>(read_uint()));
      break;
    case FieldId::kFlowEndSeconds:
      r.last = net::Timestamp(static_cast<std::int64_t>(read_uint()));
      break;
    default: (void)rd.skip(spec.length); break;
  }
}

}  // namespace lockdown::oracle
