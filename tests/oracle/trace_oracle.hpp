// Reference codec for trace-file records: one bounds-checked WireWriter /
// WireReader call per field, per record -- the walk the fixed-offset
// stores and loads of flow/trace_file.cpp compile away. The trace-codec
// differential tests and the trace bench's reference arms pin the
// compiled codec against it: byte-identical images, identical read-back,
// the same truncation verdict on every prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/flow_record.hpp"
#include "flow/trace_file.hpp"
#include "flow/wire.hpp"

namespace lockdown::oracle {

/// Append one tagged record to `w`.
inline void write_trace_record(flow::WireWriter& w, const flow::FlowRecord& r) {
  const bool v6 = r.src_addr.is_v6() || r.dst_addr.is_v6();
  w.u8(v6 ? flow::kTraceTagV6 : flow::kTraceTagV4);
  if (v6) {
    // Mixed-family records are stored as v6, v4 endpoints zero-extended.
    auto put = [&](const net::IpAddress& a) {
      if (a.is_v6()) {
        w.bytes(a.v6().bytes());
      } else {
        w.zeros(12);
        w.u32(a.v4().value());
      }
    };
    put(r.src_addr);
    put(r.dst_addr);
  } else {
    w.u32(r.src_addr.v4().value());
    w.u32(r.dst_addr.v4().value());
  }
  w.u16(r.src_port);
  w.u16(r.dst_port);
  w.u8(static_cast<std::uint8_t>(r.protocol));
  w.u8(r.tcp_flags);
  w.u64(r.bytes);
  w.u64(r.packets);
  w.u64(static_cast<std::uint64_t>(r.first.seconds()));
  w.u64(static_cast<std::uint64_t>(r.last.seconds()));
  w.u16(r.input_if);
  w.u16(r.output_if);
  w.u32(r.src_as.value());
  w.u32(r.dst_as.value());
}

/// Read one tagged record; false on an unknown tag or a short read.
inline bool read_trace_record(flow::WireReader& rd, flow::FlowRecord& r) {
  const std::uint8_t tag = rd.u8();
  if (rd.failed()) return false;
  if (tag == flow::kTraceTagV6) {
    net::Ipv6Address::Bytes src{}, dst{};
    if (!rd.read_bytes(src) || !rd.read_bytes(dst)) return false;
    r.src_addr = net::Ipv6Address(src);
    r.dst_addr = net::Ipv6Address(dst);
  } else if (tag == flow::kTraceTagV4) {
    r.src_addr = net::Ipv4Address(rd.u32());
    r.dst_addr = net::Ipv4Address(rd.u32());
  } else {
    return false;  // unknown tag: treat as corruption
  }
  r.src_port = rd.u16();
  r.dst_port = rd.u16();
  r.protocol = static_cast<flow::IpProtocol>(rd.u8());
  r.tcp_flags = rd.u8();
  r.bytes = rd.u64();
  r.packets = rd.u64();
  r.first = net::Timestamp(static_cast<std::int64_t>(rd.u64()));
  r.last = net::Timestamp(static_cast<std::int64_t>(rd.u64()));
  r.input_if = rd.u16();
  r.output_if = rd.u16();
  r.src_as = net::Asn(rd.u32());
  r.dst_as = net::Asn(rd.u32());
  return rd.ok();
}

/// A whole trace image: header (record-count hint = records.size()), then
/// one record per element.
[[nodiscard]] inline std::vector<std::uint8_t> write_trace(
    std::span<const flow::FlowRecord> records) {
  flow::WireWriter w;
  w.u32(flow::kTraceMagic);
  w.u16(flow::kTraceVersion);
  w.u16(0);  // flags
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const flow::FlowRecord& r : records) write_trace_record(w, r);
  return w.take();
}

/// Parse a trace image record by record. The hint is ignored: it only
/// sizes the compiled reader's result.
[[nodiscard]] inline std::optional<flow::TraceReadResult> read_trace(
    std::span<const std::uint8_t> image) {
  flow::WireReader rd(image);
  if (rd.u32() != flow::kTraceMagic) return std::nullopt;
  if (rd.u16() != flow::kTraceVersion) return std::nullopt;
  (void)rd.u16();  // flags
  (void)rd.u32();  // record-count hint
  if (rd.failed()) return std::nullopt;

  flow::TraceReadResult out;
  while (rd.remaining() > 0) {
    flow::FlowRecord r;
    if (!read_trace_record(rd, r)) {
      out.truncated = true;
      break;
    }
    out.records.push_back(r);
  }
  return out;
}

}  // namespace lockdown::oracle
