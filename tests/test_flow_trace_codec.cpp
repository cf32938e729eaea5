// The trace record codec (flow/trace_file.cpp) against its format and its
// reference: hex-literal images pin format v1 byte for byte, and a
// differential stream of random records pins the fixed-offset writer and
// reader against the WireWriter/WireReader oracle (tests/oracle/), down to
// the truncation verdict on every prefix of a short image.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "flow/trace_file.hpp"
#include "oracle/trace_oracle.hpp"

namespace lockdown::flow {
namespace {

using net::Asn;
using net::Ipv4Address;
using net::Ipv6Address;
using net::Timestamp;

[[nodiscard]] std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

FlowRecord v4_record() {
  FlowRecord r;
  r.src_addr = Ipv4Address(0x0a000001);  // 10.0.0.1
  r.dst_addr = Ipv4Address(0xc0000207);  // 192.0.2.7
  r.src_port = 51234;
  r.dst_port = 443;
  r.protocol = IpProtocol::kTcp;
  r.tcp_flags = 0x1b;
  r.bytes = 1500;
  r.packets = 3;
  r.first = Timestamp(1585180800);
  r.last = Timestamp(1585180842);
  r.input_if = 7;
  r.output_if = 9;
  r.src_as = Asn(64700);
  r.dst_as = Asn(15169);
  return r;
}

FlowRecord v6_record() {
  FlowRecord r;
  r.src_addr = Ipv6Address::from_halves(0x20010db800000000, 1);
  r.dst_addr = Ipv6Address::from_halves(0x2a00145000000000, 0x200e);
  r.src_port = 443;
  r.dst_port = 60000;
  r.protocol = IpProtocol::kUdp;
  r.bytes = std::numeric_limits<std::uint64_t>::max();
  r.packets = std::uint64_t{1} << 40;
  r.first = Timestamp(-1);
  r.last = Timestamp(std::numeric_limits<std::int64_t>::max());
  r.input_if = 0xffff;
  r.src_as = Asn(4200000000);
  return r;
}

/// A v4 source with a v6 destination: stored in the v6 layout with the v4
/// endpoint zero-extended.
FlowRecord mixed_record() {
  FlowRecord r;
  r.src_addr = Ipv4Address(0xc6336409);  // 198.51.100.9
  r.dst_addr = Ipv6Address::from_halves(0x20010db800000000, 2);
  r.protocol = IpProtocol::kEsp;
  r.input_if = 1;
  r.output_if = 2;
  r.src_as = Asn(1);
  r.dst_as = Asn(2);
  return r;
}

TEST(TraceCodec, ImageBytesArePinned) {
  TraceWriter writer;
  writer.append(v4_record());
  writer.append(v6_record());
  writer.append(mixed_record());
  const auto image = writer.finish();

  const std::string expected =
      // header: magic "LDFT", version 1, flags 0, record-count hint 3
      std::string("4c444654") + "0001" + "0000" + "00000003" +
      // v4 record: tag 4, addresses, ports, proto, flags
      "04" + "0a000001" + "c0000207" + "c822" + "01bb" + "06" + "1b" +
      // bytes, packets, first, last
      "00000000000005dc" + "0000000000000003" + "000000005e7bf080" +
      "000000005e7bf0aa" +
      // input/output interface, source/destination AS
      "0007" + "0009" + "0000fcbc" + "00003b41" +
      // v6 record: tag 6, addresses, ports, proto, flags
      "06" + "20010db8000000000000000000000001" +
      "2a00145000000000000000000000200e" + "01bb" + "ea60" + "11" + "00" +
      "ffffffffffffffff" + "0000010000000000" + "ffffffffffffffff" +
      "7fffffffffffffff" + "ffff" + "0000" + "fa56ea00" + "00000000" +
      // mixed record: the v6 layout, v4 source zero-extended
      "06" + "000000000000000000000000c6336409" +
      "20010db8000000000000000000000002" + "0000" + "0000" + "32" + "00" +
      "0000000000000000" + "0000000000000000" + "0000000000000000" +
      "0000000000000000" + "0001" + "0002" + "00000001" + "00000002";
  EXPECT_EQ(hex(image), expected);
  EXPECT_EQ(image.size(), kTraceHeaderBytes + 1 + kTraceV4Bytes +
                              2 * (1 + kTraceV6Bytes));

  const auto back = read_trace(image);
  ASSERT_TRUE(back);
  EXPECT_FALSE(back->truncated);
  ASSERT_EQ(back->records.size(), 3u);
  EXPECT_EQ(back->records[0], v4_record());
  EXPECT_EQ(back->records[1], v6_record());
  // The v4 endpoint of a mixed record reads back as its v6 zero-extension.
  FlowRecord mixed = mixed_record();
  mixed.src_addr = Ipv6Address::from_halves(0, 0xc6336409);
  EXPECT_EQ(back->records[2], mixed);
}

/// Random records over the whole value range of every field: v4, v6 and
/// mixed families, negative and extreme timestamps, saturated counters,
/// protocol numbers outside the IpProtocol enumerators.
class RecordSource {
 public:
  explicit RecordSource(std::uint64_t seed) : rng_(seed) {}

  FlowRecord next() {
    FlowRecord r;
    r.src_addr = address();
    r.dst_addr = address();
    r.src_port = static_cast<std::uint16_t>(rng_());
    r.dst_port = static_cast<std::uint16_t>(rng_());
    r.protocol = static_cast<IpProtocol>(rng_());
    r.tcp_flags = static_cast<std::uint8_t>(rng_());
    r.bytes = counter();
    r.packets = counter();
    r.first = Timestamp(timestamp());
    r.last = Timestamp(timestamp());
    r.input_if = static_cast<std::uint16_t>(rng_());
    r.output_if = static_cast<std::uint16_t>(rng_());
    r.src_as = Asn(static_cast<std::uint32_t>(rng_()));
    r.dst_as = Asn(static_cast<std::uint32_t>(rng_()));
    return r;
  }

 private:
  net::IpAddress address() {
    if (rng_() % 3 != 0) return Ipv4Address(static_cast<std::uint32_t>(rng_()));
    return Ipv6Address::from_halves(rng_(), rng_());
  }
  std::uint64_t counter() {
    switch (rng_() % 4) {
      case 0: return std::numeric_limits<std::uint64_t>::max();
      case 1: return 0;
      default: return rng_();
    }
  }
  std::int64_t timestamp() {
    switch (rng_() % 6) {
      case 0: return std::numeric_limits<std::int64_t>::min();
      case 1: return std::numeric_limits<std::int64_t>::max();
      case 2: return -static_cast<std::int64_t>(rng_() % 4'000'000'000);
      case 3: return static_cast<std::int64_t>(rng_());
      default: return 1'580'000'000 + static_cast<std::int64_t>(rng_() % 20'000'000);
    }
  }

  std::mt19937_64 rng_;
};

void expect_same_read(std::span<const std::uint8_t> image, const char* what) {
  const auto got = read_trace(image);
  const auto want = oracle::read_trace(image);
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->truncated, want->truncated) << what;
  ASSERT_EQ(got->records.size(), want->records.size()) << what;
  for (std::size_t i = 0; i < want->records.size(); ++i) {
    ASSERT_EQ(got->records[i], want->records[i]) << what << ", record " << i;
  }
}

TEST(TraceCodecDifferential, MillionRandomRecordsMatchTheOracle) {
  // ~1M records in slices of varying size, written once per record and
  // once per span through two long-lived writers (so every image after
  // the first comes from a reused writer).
  RecordSource source(20200325);
  std::mt19937_64 sizes(7);
  TraceWriter per_record;
  TraceWriter per_span;
  std::size_t total = 0;
  std::size_t slices = 0;
  while (total < 1'000'000) {
    std::vector<FlowRecord> slice(sizes() % 8192);
    for (FlowRecord& r : slice) r = source.next();
    total += slice.size();
    ++slices;

    const auto want = oracle::write_trace(slice);
    for (const FlowRecord& r : slice) per_record.append(r);
    ASSERT_EQ(per_record.records_written(), slice.size());
    const auto one = per_record.finish();
    ASSERT_EQ(one, want) << "per-record writer, slice " << slices;
    per_span.append(slice);
    const auto span = per_span.finish();
    ASSERT_EQ(span, want) << "span writer, slice " << slices;

    const auto got = read_trace(want);
    const auto ref = oracle::read_trace(want);
    ASSERT_TRUE(got && ref);
    ASSERT_FALSE(got->truncated);
    ASSERT_FALSE(ref->truncated);
    ASSERT_EQ(got->records, ref->records) << "slice " << slices;
  }
  EXPECT_GE(total, 1'000'000u);
}

TEST(TraceCodecDifferential, EveryTruncationPrefixMatchesTheOracle) {
  // A short mixed image: v4, v6 and mixed-family records interleaved.
  std::vector<FlowRecord> records = {v4_record(), v6_record(), mixed_record()};
  RecordSource source(11);
  for (int i = 0; i < 5; ++i) records.push_back(source.next());
  TraceWriter writer;
  writer.append(records);
  const auto image = writer.finish();
  ASSERT_EQ(image, oracle::write_trace(records));

  for (std::size_t n = 0; n <= image.size(); ++n) {
    const std::string what = "prefix " + std::to_string(n);
    expect_same_read(std::span(image.data(), n), what.c_str());
  }
  // An unknown tag at each record boundary ends the read there.
  std::size_t at = kTraceHeaderBytes;
  for (std::size_t i = 0; i < records.size(); ++i) {
    auto bad = image;
    bad[at] = 5;
    const std::string what = "bad tag at record " + std::to_string(i);
    expect_same_read(bad, what.c_str());
    const auto got = read_trace(bad);
    ASSERT_TRUE(got);
    EXPECT_TRUE(got->truncated);
    EXPECT_EQ(got->records.size(), i);
    at += 1 + (image[at] == kTraceTagV6 ? kTraceV6Bytes : kTraceV4Bytes);
  }
  EXPECT_EQ(at, image.size());
}

}  // namespace
}  // namespace lockdown::flow
