// Tests of the multi-socket wire plane and the arrival-ticket determinism
// contract: N concurrent wire lanes must produce slices byte-identical to
// a single decoder + spooler replaying the same datagrams in ticket order
// (wire_replay.hpp), and the real-socket plane must account for every
// datagram (delivered or kernel-dropped). The ThreadSanitizer CI job gates
// these.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flow/ipfix.hpp"
#include "flow/udp_transport.hpp"
#include "net/eventloop/udp_batch_socket.hpp"
#include "obs/metrics.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/wire_plane.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "wire_replay.hpp"

namespace {

using namespace lockdown;
using test::expect_identical_slices;
using test::replay_in_wire_order;

std::vector<flow::FlowRecord> synthesize_records(std::size_t hours) {
  const auto registry = synth::AsRegistry::create_default();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                       {.seed = 11});
  const synth::FlowSynthesizer synth(vp.model, registry,
                                     {.connections_per_hour = 500});
  std::vector<flow::FlowRecord> records;
  synth.synthesize(
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 9),
                     net::Timestamp::from_date(net::Date(2020, 3, 25),
                                               9 + static_cast<int>(hours))},
      [&](const flow::FlowRecord& r) { records.push_back(r); });
  return records;
}

/// Encode `records` as IPFIX from `sources` observation domains, keeping
/// each source's datagrams separate (a lane owns whole sources, the way
/// SO_REUSEPORT pins a 4-tuple to one queue).
std::vector<std::vector<std::vector<std::uint8_t>>> per_source_corpus(
    std::span<const flow::FlowRecord> records, std::size_t sources) {
  std::vector<std::vector<std::vector<std::uint8_t>>> out(sources);
  const std::size_t chunk = (records.size() + sources - 1) / sources;
  for (std::size_t s = 0; s < sources; ++s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(records.size(), begin + chunk);
    if (begin >= end) continue;
    flow::IpfixEncoder encoder(/*observation_domain=*/200 + s);
    auto slice = records.subspan(begin, end - begin);
    out[s] = encoder.encode(slice, flow::batch_export_time(slice));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The arrival-ticket replay contract, no sockets: N concurrent lanes.

TEST(TicketMerge, ConcurrentLanesMatchClassicDaemonReplayedInTicketOrder) {
  const auto records = synthesize_records(2);
  ASSERT_GT(records.size(), 400u);
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kSources = 8;
  const auto corpus = per_source_corpus(records, kSources);
  std::size_t total = 0;
  for (const auto& source : corpus) total += source.size();

  std::vector<flow::TraceSlice> sharded_slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 3,
       .ring_capacity = total + 1,  // lossless: the comparison is exact
       .rotation_seconds = 900,
       .wire_lanes = kLanes},
      [&](flow::TraceSlice&& s) { sharded_slices.push_back(std::move(s)); });

  // Each lane thread ingests its own sources concurrently with the
  // others, recording the ticket every datagram drew.
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> journal;
  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> local;
      // Round-robin this lane's sources so their datagrams interleave on
      // the lane, like exporters sharing one receive queue.
      for (std::size_t i = 0;; ++i) {
        bool any = false;
        for (std::size_t s = lane; s < kSources; s += kLanes) {
          if (i < corpus[s].size()) {
            const std::uint64_t ticket = daemon.ingest_lane(lane, corpus[s][i]);
            local.emplace_back(ticket, corpus[s][i]);
            any = true;
          }
        }
        if (!any) break;
      }
      const std::lock_guard<std::mutex> lock(mu);
      journal.insert(journal.end(), std::make_move_iterator(local.begin()),
                     std::make_move_iterator(local.end()));
    });
  }
  for (auto& t : lanes) t.join();
  daemon.flush();
  ASSERT_EQ(daemon.engine_snapshot().dropped, 0u);
  ASSERT_EQ(journal.size(), total);

  // Tickets are dense and unique: the linearized arrival order.
  std::sort(journal.begin(), journal.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < journal.size(); ++i) {
    ASSERT_EQ(journal[i].first, i) << "ticket sequence has a gap";
  }

  // One decoder fed the datagrams in ticket order must emit byte-identical
  // slices.
  std::vector<std::vector<std::uint8_t>> in_ticket_order;
  for (auto& [ticket, datagram] : journal) {
    in_ticket_order.push_back(std::move(datagram));
  }
  const auto reference = replay_in_wire_order(flow::ExportProtocol::kIpfix,
                                              900, in_ticket_order);

  EXPECT_EQ(daemon.records_spooled(), reference.records_spooled);
  expect_identical_slices(sharded_slices, reference.slices);
}

// ---------------------------------------------------------------------------
// Real sockets end to end.

/// Send every source's datagrams through its own client socket, paced so
/// a healthy rcvbuf never overflows; returns how many sends succeeded.
std::size_t send_paced(
    const std::vector<std::vector<std::vector<std::uint8_t>>>& corpus,
    std::uint16_t port) {
  std::vector<flow::UdpSocket> clients;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    auto client = flow::UdpSocket::bind_loopback(0);
    if (!client) return 0;
    clients.push_back(std::move(*client));
  }
  std::size_t sent = 0;
  std::size_t since_pause = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      if (i >= corpus[s].size()) continue;
      any = true;
      if (clients[s].send_to(port, corpus[s][i])) ++sent;
      if (++since_pause == 64) {
        since_pause = 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (!any) return sent;
  }
}

/// Wait until the daemon has seen `want` datagrams on the wire (delivered
/// into the engine), or the deadline passes.
bool wait_for_wire_datagrams(const runtime::ShardedCollectorDaemon& daemon,
                             std::uint64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < deadline) {
    if (daemon.engine_snapshot().wire_datagrams >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(WirePlane, MultiLaneEndToEndCollectsEveryRecord) {
  const auto records = synthesize_records(1);
  ASSERT_GT(records.size(), 100u);
  const auto corpus = per_source_corpus(records, 3);
  std::size_t total = 0;
  for (const auto& source : corpus) total += source.size();

  obs::Registry registry;
  std::size_t slice_records = 0;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 2,
       .ring_capacity = total + 1,
       .rotation_seconds = 300,
       .wire_lanes = 2,
       .metrics = &registry},
      [&](flow::TraceSlice&& s) { slice_records += s.records; });

  runtime::WirePlaneConfig pc;
  pc.lanes = 2;
  pc.rcvbuf_bytes = 1 << 21;
  pc.metrics = &registry;
  auto plane = runtime::WirePlane::create(pc, daemon);
  ASSERT_NE(plane, nullptr);
  ASSERT_NE(plane->port(), 0u);

  const std::size_t sent = send_paced(corpus, plane->port());
  ASSERT_EQ(sent, total);
  const bool all_arrived = wait_for_wire_datagrams(daemon, sent);
  plane->stop();  // joins the lane threads; counters safe to read now
  if (!all_arrived) {
    ASSERT_GT(plane->kernel_drops(), 0u)
        << "datagrams lost without a kernel-drop record";
    GTEST_SKIP() << "kernel dropped paced datagrams on this machine";
  }
  daemon.flush();

  EXPECT_EQ(plane->datagrams(), sent);
  EXPECT_EQ(daemon.engine_snapshot().dropped, 0u);
  EXPECT_EQ(daemon.records_spooled(), records.size());
  EXPECT_EQ(slice_records, records.size());
  if (plane->reuseport_active()) {
    EXPECT_EQ(plane->lanes(), 2u);
  } else {
    EXPECT_EQ(plane->lanes(), 1u);
  }

  // The observability surface: socket stats published as gauges, loop
  // histograms registered per lane.
  publish_wire_plane_stats(registry, *plane);
  const std::string text = registry.expose_text();
  EXPECT_GE(plane->rcvbuf_bytes(), 1 << 16) << "SO_RCVBUF grant missing";
  EXPECT_NE(text.find("collector_udp_rcvbuf_bytes " +
                      std::to_string(plane->rcvbuf_bytes()) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("collector_udp_kernel_drops"), std::string::npos);
  EXPECT_NE(text.find("wire_plane_lanes"), std::string::npos);
  EXPECT_NE(text.find("wire_plane_datagrams"), std::string::npos);
  EXPECT_NE(text.find("wire_datagrams_per_syscall"), std::string::npos);
  EXPECT_NE(text.find("eventloop_wait_batch"), std::string::npos);
  EXPECT_NE(text.find("wire_receive_batch"), std::string::npos);
}

// One lane == exact wire order: the plane must reproduce the wire-order
// replay's slices byte for byte when one client's send order defines the
// arrival order (loopback preserves per-socket ordering).
TEST(WirePlane, SingleLaneMatchesClassicDaemonByteIdentical) {
  const auto records = synthesize_records(1);
  flow::IpfixEncoder encoder(/*observation_domain=*/77);
  std::span<const flow::FlowRecord> span(records);
  const auto corpus = encoder.encode(span, flow::batch_export_time(span));
  ASSERT_GT(corpus.size(), 10u);

  const auto reference =
      replay_in_wire_order(flow::ExportProtocol::kIpfix, 900, corpus);

  std::vector<flow::TraceSlice> plane_slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 4,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 900,
       .wire_lanes = 1},
      [&](flow::TraceSlice&& s) { plane_slices.push_back(std::move(s)); });

  runtime::WirePlaneConfig pc;
  pc.lanes = 1;
  pc.rcvbuf_bytes = 1 << 21;
  auto plane = runtime::WirePlane::create(pc, daemon);
  ASSERT_NE(plane, nullptr);

  auto client = flow::UdpSocket::bind_loopback(0);
  ASSERT_TRUE(client.has_value());
  std::size_t sent = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (client->send_to(plane->port(), corpus[i])) ++sent;
    if ((i & 63) == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sent, corpus.size());
  const bool all_arrived = wait_for_wire_datagrams(daemon, sent);
  plane->stop();
  if (!all_arrived) {
    ASSERT_GT(plane->kernel_drops(), 0u)
        << "datagrams lost without a kernel-drop record";
    GTEST_SKIP() << "kernel dropped paced datagrams on this machine";
  }
  daemon.flush();
  ASSERT_EQ(daemon.engine_snapshot().dropped, 0u);

  EXPECT_EQ(daemon.records_spooled(), reference.records_spooled);
  expect_identical_slices(plane_slices, reference.slices);
}

// The spool counters are single-writer atomics: a reader thread (a
// heartbeat, a scrape, a benchmark) may poll them while the wire lane
// spools. ThreadSanitizer flags any unsynchronized access here.
TEST(ShardedDaemon, RecordsSpooledReadableWhileSpooling) {
  const auto records = synthesize_records(1);
  flow::IpfixEncoder encoder(/*observation_domain=*/78);
  std::span<const flow::FlowRecord> span(records);
  const auto corpus = encoder.encode(span, flow::batch_export_time(span));

  std::size_t slice_records = 0;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 1,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 300,
       .wire_lanes = 1},
      [&](flow::TraceSlice&& s) { slice_records += s.records; });
  runtime::WirePlaneConfig pc;
  pc.lanes = 1;
  pc.rcvbuf_bytes = 1 << 21;
  auto plane = runtime::WirePlane::create(pc, daemon);
  ASSERT_NE(plane, nullptr);
  auto client = flow::UdpSocket::bind_loopback(0);
  ASSERT_TRUE(client.has_value());

  std::atomic<bool> done{false};
  std::size_t reads = 0;
  bool monotone = true;
  std::thread reader([&] {
    std::size_t last_records = 0, last_slices = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t spooled = daemon.records_spooled();
      const std::size_t slices = daemon.slices_emitted();
      monotone = monotone && spooled >= last_records && slices >= last_slices;
      last_records = spooled;
      last_slices = slices;
      ++reads;
      std::this_thread::yield();
    }
  });

  std::size_t sent = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    if (client->send_to(plane->port(), corpus[i])) ++sent;
    if ((i & 63) == 63) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool all_arrived = wait_for_wire_datagrams(daemon, sent);
  plane->stop();
  daemon.flush();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(reads, 0u);
  EXPECT_TRUE(monotone) << "a spool counter went backwards";
  if (!all_arrived) {
    ASSERT_GT(plane->kernel_drops(), 0u)
        << "datagrams lost without a kernel-drop record";
    GTEST_SKIP() << "kernel dropped paced datagrams on this machine";
  }
  EXPECT_EQ(daemon.records_spooled(), records.size());
  EXPECT_EQ(slice_records, records.size());
  EXPECT_GT(daemon.slices_emitted(), 1u);
}

}  // namespace
