#include "flow/trace_file.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/file.hpp"

namespace lockdown::flow {

namespace {

/// Big-endian store/load of one unsigned field at a fixed offset: one
/// unaligned move plus a byte swap on little-endian hosts.
template <typename T>
[[nodiscard]] inline T big_endian(T v) noexcept {
  static_assert(sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::big) {
    return v;
  } else if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename T>
inline void put(std::uint8_t* p, T v) noexcept {
  v = big_endian(v);
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
[[nodiscard]] inline T get(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return big_endian(v);
}

/// Record size including the tag byte; 0 for an unknown tag.
[[nodiscard]] inline std::size_t record_bytes(std::uint8_t tag) noexcept {
  if (tag == kTraceTagV4) return 1 + kTraceV4Bytes;
  if (tag == kTraceTagV6) return 1 + kTraceV6Bytes;
  return 0;
}

[[nodiscard]] inline bool stored_as_v6(const FlowRecord& r) noexcept {
  return r.src_addr.is_v6() || r.dst_addr.is_v6();
}

/// The fields after the addresses: the same 50 bytes in both layouts.
inline void put_tail(std::uint8_t* p, const FlowRecord& r) noexcept {
  put<std::uint16_t>(p + 0, r.src_port);
  put<std::uint16_t>(p + 2, r.dst_port);
  p[4] = static_cast<std::uint8_t>(r.protocol);
  p[5] = r.tcp_flags;
  put<std::uint64_t>(p + 6, r.bytes);
  put<std::uint64_t>(p + 14, r.packets);
  put<std::uint64_t>(p + 22, static_cast<std::uint64_t>(r.first.seconds()));
  put<std::uint64_t>(p + 30, static_cast<std::uint64_t>(r.last.seconds()));
  put<std::uint16_t>(p + 38, r.input_if);
  put<std::uint16_t>(p + 40, r.output_if);
  put<std::uint32_t>(p + 42, r.src_as.value());
  put<std::uint32_t>(p + 46, r.dst_as.value());
}

inline void get_tail(const std::uint8_t* p, FlowRecord& r) noexcept {
  r.src_port = get<std::uint16_t>(p + 0);
  r.dst_port = get<std::uint16_t>(p + 2);
  r.protocol = static_cast<IpProtocol>(p[4]);
  r.tcp_flags = p[5];
  r.bytes = get<std::uint64_t>(p + 6);
  r.packets = get<std::uint64_t>(p + 14);
  r.first = net::Timestamp(static_cast<std::int64_t>(get<std::uint64_t>(p + 22)));
  r.last = net::Timestamp(static_cast<std::int64_t>(get<std::uint64_t>(p + 30)));
  r.input_if = get<std::uint16_t>(p + 38);
  r.output_if = get<std::uint16_t>(p + 40);
  r.src_as = net::Asn(get<std::uint32_t>(p + 42));
  r.dst_as = net::Asn(get<std::uint32_t>(p + 46));
}

/// Store one record, tag included, into the 59 (v4) or 83 (v6) bytes at
/// `p`. Every byte is written, so `p` need not be zeroed.
inline void put_record(std::uint8_t* p, const FlowRecord& r) noexcept {
  if (stored_as_v6(r)) {
    // Mixed-family records are stored as v6 (v4 endpoints zero-extended --
    // they do not occur in practice; the synthesizer never mixes families).
    p[0] = kTraceTagV6;
    auto put_addr = [](std::uint8_t* at, const net::IpAddress& a) {
      if (a.is_v6()) {
        std::copy(a.v6().bytes().begin(), a.v6().bytes().end(), at);
      } else {
        put<std::uint64_t>(at, 0);
        put<std::uint32_t>(at + 8, 0);
        put<std::uint32_t>(at + 12, a.v4().value());
      }
    };
    put_addr(p + 1, r.src_addr);
    put_addr(p + 17, r.dst_addr);
    put_tail(p + 33, r);
  } else {
    p[0] = kTraceTagV4;
    put<std::uint32_t>(p + 1, r.src_addr.v4().value());
    put<std::uint32_t>(p + 5, r.dst_addr.v4().value());
    put_tail(p + 9, r);
  }
}

/// Load one record whose tag and record_bytes() were already checked.
inline void get_record(const std::uint8_t* p, FlowRecord& r) noexcept {
  if (p[0] == kTraceTagV6) {
    net::Ipv6Address::Bytes src;
    net::Ipv6Address::Bytes dst;
    std::copy(p + 1, p + 17, src.begin());
    std::copy(p + 17, p + 33, dst.begin());
    r.src_addr = net::Ipv6Address(src);
    r.dst_addr = net::Ipv6Address(dst);
    get_tail(p + 33, r);
  } else {
    r.src_addr = net::Ipv4Address(get<std::uint32_t>(p + 1));
    r.dst_addr = net::Ipv4Address(get<std::uint32_t>(p + 5));
    get_tail(p + 9, r);
  }
}

}  // namespace

TraceWriter::TraceWriter() { start(); }

void TraceWriter::start() {
  buf_.clear();
  buf_.resize(kTraceHeaderBytes);
  put<std::uint32_t>(buf_.data(), kTraceMagic);
  put<std::uint16_t>(buf_.data() + 4, kTraceVersion);
  // Flags (offset 6) and the record-count hint (offset 8, patched in
  // finish()) stay zero.
  count_ = 0;
}

void TraceWriter::append(const FlowRecord& record) {
  // Stored on the stack, then appended with a length the compiler knows:
  // growing buf_ by resize() instead would zero-fill every record first.
  std::uint8_t bytes[1 + kTraceV6Bytes];
  put_record(bytes, record);
  if (bytes[0] == kTraceTagV6) {
    buf_.insert(buf_.end(), bytes, bytes + 1 + kTraceV6Bytes);
  } else {
    buf_.insert(buf_.end(), bytes, bytes + 1 + kTraceV4Bytes);
  }
  ++count_;
}

void TraceWriter::append(std::span<const FlowRecord> records) {
  for (const FlowRecord& r : records) append(r);
}

std::vector<std::uint8_t> TraceWriter::finish() {
  put<std::uint32_t>(buf_.data() + 8, static_cast<std::uint32_t>(count_));
  std::vector<std::uint8_t> out = std::move(buf_);
  start();
  return out;
}

std::string TraceWriter::write_file(const std::string& path) {
  const auto image = finish();
  return util::write_whole_file(path, image.data(), image.size());
}

std::optional<TraceReadResult> read_trace(std::span<const std::uint8_t> image) {
  if (image.size() < kTraceHeaderBytes) return std::nullopt;
  const std::uint8_t* const base = image.data();
  if (get<std::uint32_t>(base) != kTraceMagic) return std::nullopt;
  if (get<std::uint16_t>(base + 4) != kTraceVersion) return std::nullopt;
  // Flags (offset 6) are reserved.
  const std::uint32_t hint = get<std::uint32_t>(base + 8);

  // Size the result once from the hint, but never beyond what the image
  // can hold (every record is at least 59 bytes).
  TraceReadResult out;
  const std::size_t end = image.size();
  out.records.resize(std::min<std::size_t>(
      hint, (end - kTraceHeaderBytes) / (1 + kTraceV4Bytes)));
  std::size_t n = 0;
  for (std::size_t pos = kTraceHeaderBytes; pos < end;) {
    const std::size_t len = record_bytes(base[pos]);
    if (len == 0 || end - pos < len) {  // unknown tag or cut-off record
      out.truncated = true;
      break;
    }
    if (n == out.records.size()) out.records.emplace_back();
    get_record(base + pos, out.records[n++]);
    pos += len;
  }
  out.records.resize(n);
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
