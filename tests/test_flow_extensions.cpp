// Tests for the flow-layer extensions: the binary trace-file format and the
// loopback UDP transport.
#include <gtest/gtest.h>

#include <sys/socket.h>  // SO_RXQ_OVFL availability for the kernel-drop test

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "flow/pipeline.hpp"
#include "flow/trace_file.hpp"
#include "flow/udp_transport.hpp"
#include "util/rng.hpp"

namespace lockdown::flow {
namespace {

using net::Asn;
using net::Ipv4Address;
using net::Timestamp;

FlowRecord request_flow(std::uint64_t id, Timestamp t) {
  FlowRecord r;
  r.src_addr = Ipv4Address(static_cast<std::uint32_t>(0x0a000000 + id));
  r.dst_addr = Ipv4Address(static_cast<std::uint32_t>(0x65000000 + id));
  r.src_port = static_cast<std::uint16_t>(40000 + id % 1000);
  r.dst_port = 443;
  r.protocol = IpProtocol::kTcp;
  r.bytes = 500;
  r.packets = 5;
  r.first = t;
  r.last = t.plus(10);
  r.src_as = Asn(64700);
  r.dst_as = Asn(15169);
  return r;
}

// --- trace file -----------------------------------------------------------------

TEST(TraceFile, RoundTripMixedFamilies) {
  TraceWriter writer;
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto r = request_flow(i, Timestamp(5000 + static_cast<std::int64_t>(i)));
    if (i % 4 == 0) {
      r.src_addr = net::Ipv6Address::from_halves(0x20010db8, i);
      r.dst_addr = net::Ipv6Address::from_halves(0x20010db8, 1000 + i);
    }
    records.push_back(r);
    writer.append(r);
  }
  EXPECT_EQ(writer.records_written(), 100u);
  const auto image = writer.finish();
  EXPECT_EQ(writer.records_written(), 0u);  // reusable

  const auto result = read_trace(image);
  ASSERT_TRUE(result);
  EXPECT_FALSE(result->truncated);
  ASSERT_EQ(result->records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result->records[i], records[i]) << i;
  }
}

TEST(TraceFile, RejectsBadHeader) {
  std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_FALSE(read_trace(junk));
  TraceWriter writer;
  writer.append(request_flow(1, Timestamp(1)));
  auto image = writer.finish();
  image[5] = 99;  // version
  EXPECT_FALSE(read_trace(image));
}

TEST(TraceFile, TruncationReturnsPrefix) {
  TraceWriter writer;
  for (std::uint64_t i = 0; i < 10; ++i) {
    writer.append(request_flow(i, Timestamp(100)));
  }
  const auto image = writer.finish();
  const std::span<const std::uint8_t> cut(image.data(), image.size() - 20);
  const auto result = read_trace(cut);
  ASSERT_TRUE(result);
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->records.size(), 9u);
}

TEST(TraceFile, HostileCountHintIsCappedByImageSize) {
  // Header only: magic, version 1, flags 0, hint 0xFFFFFFFF.
  const std::vector<std::uint8_t> header = {'L', 'D', 'F', 'T', 0, 1,
                                            0,   0,   0xff, 0xff, 0xff, 0xff};
  const auto empty = read_trace(header);
  ASSERT_TRUE(empty);
  EXPECT_FALSE(empty->truncated);
  EXPECT_TRUE(empty->records.empty());

  // A hint larger (or smaller) than the records present changes nothing:
  // exactly the records of the image come back.
  TraceWriter writer;
  std::vector<FlowRecord> records;
  for (std::uint64_t i = 0; i < 3; ++i) {
    records.push_back(request_flow(i, Timestamp(100)));
    writer.append(records.back());
  }
  auto image = writer.finish();
  for (const std::uint8_t hint : {0xff, 0x00}) {
    std::fill(image.begin() + 8, image.begin() + 12, hint);
    const auto result = read_trace(image);
    ASSERT_TRUE(result);
    EXPECT_FALSE(result->truncated);
    EXPECT_EQ(result->records, records);
  }
}

TEST(TraceFile, DiskRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lockdown_trace_test.lft").string();
  TraceWriter writer;
  for (std::uint64_t i = 0; i < 50; ++i) {
    writer.append(request_flow(i, Timestamp(9000)));
  }
  ASSERT_EQ(writer.write_file(path), "");
  const auto result = read_trace_file(path);
  ASSERT_TRUE(result);
  EXPECT_EQ(result->records.size(), 50u);
  std::remove(path.c_str());
  EXPECT_FALSE(read_trace_file(path));  // gone
}

// --- UDP transport ---------------------------------------------------------------

/// Receive every queued datagram through UdpSocket::receive_into with one
/// reused 64 KiB buffer (any UDP payload fits); returns how many arrived.
template <typename Handler>
std::size_t drain_socket(const UdpSocket& socket, Handler&& handler) {
  std::vector<std::uint8_t> scratch(65536);
  std::size_t count = 0;
  while (const auto n = socket.receive_into(scratch)) {
    handler(std::span<const std::uint8_t>(scratch.data(), *n));
    ++count;
  }
  return count;
}

TEST(UdpTransport, LoopbackDatagramDelivery) {
  auto collector = UdpSocket::bind_loopback();
  ASSERT_TRUE(collector);
  ASSERT_NE(collector->port(), 0);
  auto exporter = UdpExporterTransport::create(collector->port());
  ASSERT_TRUE(exporter);

  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b = {4, 5, 6, 7};
  exporter->send(a);
  exporter->send(b);
  EXPECT_EQ(exporter->sent(), 2u);
  EXPECT_EQ(exporter->dropped(), 0u);

  std::vector<std::vector<std::uint8_t>> received;
  // Loopback delivery is immediate but give the kernel a few polls.
  for (int i = 0; i < 100 && received.size() < 2; ++i) {
    (void)drain_socket(*collector, [&](std::span<const std::uint8_t> d) {
      received.emplace_back(d.begin(), d.end());
    });
  }
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], a);  // datagram boundaries preserved
  EXPECT_EQ(received[1], b);
}

TEST(UdpTransport, NetflowOverRealSockets) {
  // Full path: synthesize -> encode v5 -> UDP loopback -> decode -> verify.
  auto collector_socket = UdpSocket::bind_loopback();
  ASSERT_TRUE(collector_socket);
  auto exporter_transport = UdpExporterTransport::create(collector_socket->port());
  ASSERT_TRUE(exporter_transport);

  std::vector<FlowRecord> sent_records;
  for (std::uint64_t i = 0; i < 200; ++i) {
    sent_records.push_back(request_flow(i, Timestamp(77777)));
  }
  NetflowV5Encoder encoder;
  for (const auto& packet : encoder.encode(sent_records, Timestamp(80000))) {
    exporter_transport->send(packet);
  }

  std::vector<FlowRecord> got;
  Collector collector(ExportProtocol::kNetflowV5,
                      [&](const FlowRecord& r) { got.push_back(r); });
  for (int i = 0; i < 200 && got.size() < sent_records.size(); ++i) {
    (void)drain_socket(*collector_socket, [&](std::span<const std::uint8_t> d) {
      collector.ingest(d);
    });
  }
  ASSERT_EQ(got.size(), sent_records.size());
  EXPECT_EQ(collector.stats().malformed_packets, 0u);
  std::uint64_t want = 0, have = 0;
  for (const auto& r : sent_records) want += r.bytes;
  for (const auto& r : got) have += r.bytes;
  EXPECT_EQ(want, have);
}

TEST(UdpTransport, DrainOnEmptyQueueReturnsZero) {
  auto collector = UdpSocket::bind_loopback();
  ASSERT_TRUE(collector);
  std::vector<std::uint8_t> scratch(65536);
  EXPECT_FALSE(collector->receive_into(scratch).has_value());
  EXPECT_EQ(drain_socket(*collector, [](std::span<const std::uint8_t>) {}), 0u);
}

TEST(UdpTransport, ExplicitRcvbufIsGranted) {
  constexpr int kRequested = 1 << 18;
  auto collector = UdpSocket::bind_loopback(0, kRequested);
  ASSERT_TRUE(collector);
  // Linux doubles the request for bookkeeping overhead; any platform must
  // grant at least what was asked for.
  EXPECT_GE(collector->rcvbuf_bytes(), kRequested);
  EXPECT_EQ(collector->kernel_drops(), 0u);
}

#ifdef SO_RXQ_OVFL
TEST(UdpTransport, KernelReceiveQueueDropsAreCounted) {
  // Tiny receive buffer + bursts larger than it: the kernel must shed
  // datagrams, and the collector must be able to see that it did (the
  // receive-side analogue of the exporter's dropped() counter). The
  // blocking-drain reference bench relies on this counter to prove its
  // bursts arrived whole.
  auto collector = UdpSocket::bind_loopback(0, 4096);
  ASSERT_TRUE(collector);
  auto exporter = UdpExporterTransport::create(collector->port());
  ASSERT_TRUE(exporter);

  const std::vector<std::uint8_t> payload(1200, 0xab);
  std::size_t received = 0;
  // Interleave overflow bursts with drains: the cumulative drop counter
  // rides on successfully delivered datagrams, so only datagrams enqueued
  // *after* a drop report it.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 64; ++i) exporter->send(payload);
    received += drain_socket(*collector, [](std::span<const std::uint8_t>) {});
  }
  ASSERT_EQ(exporter->dropped(), 0u);
  ASSERT_LT(received, exporter->sent());
  EXPECT_GT(collector->kernel_drops(), 0u);
  EXPECT_LE(collector->kernel_drops(), exporter->sent() - received);
}
#endif

}  // namespace
}  // namespace lockdown::flow
