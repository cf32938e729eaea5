#include "flow/decode_plan.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <type_traits>

namespace lockdown::flow {

namespace {

/// Big-endian load of the widths the reference decode accepts for numeric
/// fields; every other width (including 0) yields 0, matching the
/// interpreted path's "skip and assign zero" behavior.
[[nodiscard]] inline std::uint64_t load_be(const std::uint8_t* p,
                                           std::uint16_t width) noexcept {
  switch (width) {
    case 1:
      return p[0];
    case 2:
      return static_cast<std::uint64_t>(p[0]) << 8 | p[1];
    case 4:
      return static_cast<std::uint64_t>(p[0]) << 24 |
             static_cast<std::uint64_t>(p[1]) << 16 |
             static_cast<std::uint64_t>(p[2]) << 8 | p[3];
    case 8:
      return static_cast<std::uint64_t>(p[0]) << 56 |
             static_cast<std::uint64_t>(p[1]) << 48 |
             static_cast<std::uint64_t>(p[2]) << 40 |
             static_cast<std::uint64_t>(p[3]) << 32 |
             static_cast<std::uint64_t>(p[4]) << 24 |
             static_cast<std::uint64_t>(p[5]) << 16 |
             static_cast<std::uint64_t>(p[6]) << 8 | p[7];
    default:
      return 0;
  }
}

[[nodiscard]] constexpr bool numeric_width(std::uint16_t w) noexcept {
  return w == 1 || w == 2 || w == 4 || w == 8;
}

/// Columnar inner loop for one numeric step: the width switch is hoisted
/// out of the record loop, so each case body is a run of fixed-width
/// big-endian loads at a constant stride -- the form the optimizer turns
/// into single loads plus a byte swap.
template <typename Assign>
inline void numeric_column(const std::uint8_t* p, std::size_t stride,
                           std::size_t n, std::uint16_t width, FlowRecord* out,
                           Assign assign) noexcept {
  switch (width) {
    case 1:
      for (std::size_t i = 0; i < n; ++i, p += stride) assign(out[i], p[0]);
      break;
    case 2:
      for (std::size_t i = 0; i < n; ++i, p += stride) {
        assign(out[i], static_cast<std::uint64_t>(p[0]) << 8 | p[1]);
      }
      break;
    case 4:
      for (std::size_t i = 0; i < n; ++i, p += stride) {
        assign(out[i], static_cast<std::uint64_t>(p[0]) << 24 |
                           static_cast<std::uint64_t>(p[1]) << 16 |
                           static_cast<std::uint64_t>(p[2]) << 8 | p[3]);
      }
      break;
    case 8:
      for (std::size_t i = 0; i < n; ++i, p += stride) {
        assign(out[i], static_cast<std::uint64_t>(p[0]) << 56 |
                           static_cast<std::uint64_t>(p[1]) << 48 |
                           static_cast<std::uint64_t>(p[2]) << 40 |
                           static_cast<std::uint64_t>(p[3]) << 32 |
                           static_cast<std::uint64_t>(p[4]) << 24 |
                           static_cast<std::uint64_t>(p[5]) << 16 |
                           static_cast<std::uint64_t>(p[6]) << 8 | p[7]);
      }
      break;
    default:  // non-loadable width: assign zero, like the scalar path
      for (std::size_t i = 0; i < n; ++i) assign(out[i], 0);
      break;
  }
}

}  // namespace

DecodePlan DecodePlan::compile(const TemplateRecord& tmpl) {
  DecodePlan plan;
  plan.steps_.reserve(tmpl.fields.size());
  std::size_t offset = 0;

  for (const FieldSpec& f : tmpl.fields) {
    const auto emit_numeric = [&](Op op) {
      // Non-loadable widths still assign (zero) in the reference decode's
      // read_uint default case; width 0 encodes that in the step.
      plan.steps_.push_back(Step{static_cast<std::uint32_t>(offset),
                                 numeric_width(f.length) ? f.length
                                                         : std::uint16_t{0},
                                 op});
    };
    switch (f.id) {
      case FieldId::kOctetDeltaCount: emit_numeric(Op::kBytes); break;
      case FieldId::kPacketDeltaCount: emit_numeric(Op::kPackets); break;
      case FieldId::kProtocolIdentifier: emit_numeric(Op::kProtocol); break;
      case FieldId::kTcpControlBits: emit_numeric(Op::kTcpFlags); break;
      case FieldId::kSourceTransportPort: emit_numeric(Op::kSrcPort); break;
      case FieldId::kDestinationTransportPort: emit_numeric(Op::kDstPort); break;
      case FieldId::kIngressInterface: emit_numeric(Op::kInputIf); break;
      case FieldId::kEgressInterface: emit_numeric(Op::kOutputIf); break;
      case FieldId::kBgpSourceAsNumber: emit_numeric(Op::kSrcAs); break;
      case FieldId::kBgpDestinationAsNumber: emit_numeric(Op::kDstAs); break;
      case FieldId::kSourceIpv4Address: emit_numeric(Op::kSrcV4); break;
      case FieldId::kDestinationIpv4Address: emit_numeric(Op::kDstV4); break;
      case FieldId::kSourceIpv6Address:
        // A 16-byte copy, or -- any other width -- a pure skip with no
        // assignment (no step at all; the offset advance covers it).
        if (f.length == 16) {
          plan.steps_.push_back(
              Step{static_cast<std::uint32_t>(offset), 16, Op::kSrcV6});
        }
        break;
      case FieldId::kDestinationIpv6Address:
        if (f.length == 16) {
          plan.steps_.push_back(
              Step{static_cast<std::uint32_t>(offset), 16, Op::kDstV6});
        }
        break;
      case FieldId::kFirstSwitched: emit_numeric(Op::kFirstUptime); break;
      case FieldId::kLastSwitched: emit_numeric(Op::kLastUptime); break;
      case FieldId::kFlowStartSeconds: emit_numeric(Op::kFirstAbsolute); break;
      case FieldId::kFlowEndSeconds: emit_numeric(Op::kLastAbsolute); break;
      default:
        break;  // unknown IE: skip-listed, covered by the offset advance
    }
    offset += f.length;
  }
  plan.stride_ = offset;
  return plan;
}

void DecodePlan::decode(const std::uint8_t* rec, FlowRecord& out,
                        const TimeContext& tc) const noexcept {
  for (const Step& s : steps_) {
    const std::uint8_t* p = rec + s.src_offset;
    switch (s.op) {
      case Op::kBytes: out.bytes = load_be(p, s.width); break;
      case Op::kPackets: out.packets = load_be(p, s.width); break;
      case Op::kProtocol:
        out.protocol = static_cast<IpProtocol>(load_be(p, s.width));
        break;
      case Op::kTcpFlags:
        out.tcp_flags = static_cast<std::uint8_t>(load_be(p, s.width));
        break;
      case Op::kSrcPort:
        out.src_port = static_cast<std::uint16_t>(load_be(p, s.width));
        break;
      case Op::kDstPort:
        out.dst_port = static_cast<std::uint16_t>(load_be(p, s.width));
        break;
      case Op::kInputIf:
        out.input_if = static_cast<std::uint16_t>(load_be(p, s.width));
        break;
      case Op::kOutputIf:
        out.output_if = static_cast<std::uint16_t>(load_be(p, s.width));
        break;
      case Op::kSrcAs:
        out.src_as = net::Asn(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kDstAs:
        out.dst_as = net::Asn(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kSrcV4:
        out.src_addr =
            net::Ipv4Address(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kDstV4:
        out.dst_addr =
            net::Ipv4Address(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kSrcV6: {
        net::Ipv6Address::Bytes b;
        std::memcpy(b.data(), p, b.size());
        out.src_addr = net::Ipv6Address(b);
        break;
      }
      case Op::kDstV6: {
        net::Ipv6Address::Bytes b;
        std::memcpy(b.data(), p, b.size());
        out.dst_addr = net::Ipv6Address(b);
        break;
      }
      case Op::kFirstUptime:
        out.first =
            tc.from_uptime(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kLastUptime:
        out.last =
            tc.from_uptime(static_cast<std::uint32_t>(load_be(p, s.width)));
        break;
      case Op::kFirstAbsolute:
        out.first =
            net::Timestamp(static_cast<std::int64_t>(load_be(p, s.width)));
        break;
      case Op::kLastAbsolute:
        out.last =
            net::Timestamp(static_cast<std::int64_t>(load_be(p, s.width)));
        break;
    }
  }
}

void DecodePlan::decode_batch(const std::uint8_t* base, std::size_t n,
                              FlowRecord* out,
                              const TimeContext& tc) const noexcept {
  for (std::size_t done = 0; done < n; done += kTileRecords) {
    const std::size_t m = std::min(kTileRecords, n - done);
    decode_tile(base + done * stride_, m, out + done, tc);
  }
}

void DecodePlan::decode_batch(const std::uint8_t* base, std::size_t n,
                              std::vector<FlowRecord>& out,
                              const TimeContext& tc) const {
  // Appending a tile by range-inserting from a prototype array is a
  // memcpy (FlowRecord is trivially copyable); resize()'s per-member
  // default construction was costing as much as the decode itself.
  static_assert(std::is_trivially_copyable_v<FlowRecord>);
  static const std::array<FlowRecord, kTileRecords> kDefaults{};
  out.reserve(out.size() + n);
  for (std::size_t done = 0; done < n; done += kTileRecords) {
    const std::size_t m = std::min(kTileRecords, n - done);
    const std::size_t first = out.size();
    out.insert(out.end(), kDefaults.begin(), kDefaults.begin() + m);
    decode_tile(base + done * stride_, m, out.data() + first, tc);
  }
}

void DecodePlan::decode_tile(const std::uint8_t* base, std::size_t n,
                             FlowRecord* out,
                             const TimeContext& tc) const noexcept {
  const std::size_t stride = stride_;
  for (const Step& s : steps_) {
    const std::uint8_t* p = base + s.src_offset;
    // Steps run in template order across the whole batch; because every
    // step writes the same field of each record, the per-record final
    // values (including duplicate-field overwrites) match decode().
    switch (s.op) {
      case Op::kBytes:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept { r.bytes = v; });
        break;
      case Op::kPackets:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept { r.packets = v; });
        break;
      case Op::kProtocol:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.protocol = static_cast<IpProtocol>(v);
                       });
        break;
      case Op::kTcpFlags:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.tcp_flags = static_cast<std::uint8_t>(v);
                       });
        break;
      case Op::kSrcPort:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.src_port = static_cast<std::uint16_t>(v);
                       });
        break;
      case Op::kDstPort:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.dst_port = static_cast<std::uint16_t>(v);
                       });
        break;
      case Op::kInputIf:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.input_if = static_cast<std::uint16_t>(v);
                       });
        break;
      case Op::kOutputIf:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.output_if = static_cast<std::uint16_t>(v);
                       });
        break;
      case Op::kSrcAs:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.src_as = net::Asn(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kDstAs:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.dst_as = net::Asn(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kSrcV4:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kDstV4:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kSrcV6:
        for (std::size_t i = 0; i < n; ++i, p += stride) {
          net::Ipv6Address::Bytes b;
          std::memcpy(b.data(), p, b.size());
          out[i].src_addr = net::Ipv6Address(b);
        }
        break;
      case Op::kDstV6:
        for (std::size_t i = 0; i < n; ++i, p += stride) {
          net::Ipv6Address::Bytes b;
          std::memcpy(b.data(), p, b.size());
          out[i].dst_addr = net::Ipv6Address(b);
        }
        break;
      case Op::kFirstUptime:
        numeric_column(p, stride, n, s.width, out,
                       [&tc](FlowRecord& r, std::uint64_t v) noexcept {
                         r.first = tc.from_uptime(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kLastUptime:
        numeric_column(p, stride, n, s.width, out,
                       [&tc](FlowRecord& r, std::uint64_t v) noexcept {
                         r.last = tc.from_uptime(static_cast<std::uint32_t>(v));
                       });
        break;
      case Op::kFirstAbsolute:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.first = net::Timestamp(static_cast<std::int64_t>(v));
                       });
        break;
      case Op::kLastAbsolute:
        numeric_column(p, stride, n, s.width, out,
                       [](FlowRecord& r, std::uint64_t v) noexcept {
                         r.last = net::Timestamp(static_cast<std::int64_t>(v));
                       });
        break;
    }
  }
}

}  // namespace lockdown::flow
