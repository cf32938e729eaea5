#include "flow/trace_file.hpp"

#include <cstdio>
#include <memory>

#include "flow/wire.hpp"
#include "util/file.hpp"

namespace lockdown::flow {

namespace {

// Record tags.
constexpr std::uint8_t kTagV4 = 4;
constexpr std::uint8_t kTagV6 = 6;

void write_record(WireWriter& w, const FlowRecord& r) {
  const bool v6 = r.src_addr.is_v6() || r.dst_addr.is_v6();
  w.u8(v6 ? kTagV6 : kTagV4);
  if (v6) {
    // Mixed-family records are stored as v6 (v4 endpoints zero-extended --
    // they do not occur in practice; the synthesizer never mixes families).
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

bool read_record(WireReader& rd, FlowRecord& r) {
  const std::uint8_t tag = rd.u8();
  if (rd.failed()) return false;
  if (tag == kTagV6) {
    net::Ipv6Address::Bytes src{}, dst{};
    if (!rd.read_bytes(src) || !rd.read_bytes(dst)) return false;
    r.src_addr = net::Ipv6Address(src);
    r.dst_addr = net::Ipv6Address(dst);
  } else if (tag == kTagV4) {
    r.src_addr = net::Ipv4Address(rd.u32());
    r.dst_addr = net::Ipv4Address(rd.u32());
  } else {
    return false;  // unknown tag: treat as corruption
  }
  r.src_port = rd.u16();
  r.dst_port = rd.u16();
  r.protocol = static_cast<IpProtocol>(rd.u8());
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

}  // namespace

TraceWriter::TraceWriter() { start(); }

void TraceWriter::start() {
  buf_.clear();
  count_ = 0;
  WireWriter w;
  w.u32(kTraceMagic);
  w.u16(kTraceVersion);
  w.u16(0);  // flags
  w.u32(0);  // record-count hint, patched in finish()
  buf_ = w.take();
}

void TraceWriter::append(const FlowRecord& record) {
  WireWriter w;
  write_record(w, record);
  const auto& bytes = w.data();
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  ++count_;
}

void TraceWriter::append(std::span<const FlowRecord> records) {
  for (const FlowRecord& r : records) append(r);
}

std::vector<std::uint8_t> TraceWriter::finish() {
  // Patch the record-count hint (offset 8, big-endian u32).
  const auto n = static_cast<std::uint32_t>(count_);
  buf_[8] = static_cast<std::uint8_t>(n >> 24);
  buf_[9] = static_cast<std::uint8_t>(n >> 16);
  buf_[10] = static_cast<std::uint8_t>(n >> 8);
  buf_[11] = static_cast<std::uint8_t>(n);
  std::vector<std::uint8_t> out = std::move(buf_);
  start();
  return out;
}

std::string TraceWriter::write_file(const std::string& path) {
  const auto image = finish();
  return util::write_whole_file(path, image.data(), image.size());
}

std::optional<TraceReadResult> read_trace(std::span<const std::uint8_t> image) {
  WireReader rd(image);
  if (rd.u32() != kTraceMagic) return std::nullopt;
  if (rd.u16() != kTraceVersion) return std::nullopt;
  (void)rd.u16();  // flags
  const std::uint32_t hint = rd.u32();
  if (rd.failed()) return std::nullopt;

  TraceReadResult out;
  out.records.reserve(hint);
  while (rd.remaining() > 0) {
    FlowRecord r;
    if (!read_record(rd, r)) {
      out.truncated = true;
      break;
    }
    out.records.push_back(r);
  }
  return out;
}

std::optional<TraceReadResult> read_trace_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> image;
  std::uint8_t chunk[64 * 1024];
  while (true) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), f.get());
    image.insert(image.end(), chunk, chunk + n);
    if (n < sizeof(chunk)) break;
  }
  return read_trace(image);
}

}  // namespace lockdown::flow
