// Tests for slice rotation (flow::SliceSpooler), the collector daemon's
// on-premise anonymization, malformed-input accounting and end-to-end
// spooling, and the mobility-report model.
#include <gtest/gtest.h>

#include <stdexcept>

#include "flow/collector_daemon.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "runtime/sharded_daemon.hpp"
#include "stats/ecdf.hpp"
#include "synth/mobility.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "wire_replay.hpp"

namespace lockdown {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;

// --- Slice rotation -------------------------------------------------------------

flow::FlowRecord record_at(Timestamp t, std::uint64_t bytes = 1000) {
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(10, 0, 0, 1);
  r.dst_addr = net::Ipv4Address(10, 0, 0, 2);
  r.src_port = 50000;
  r.dst_port = 443;
  r.bytes = bytes;
  r.packets = 2;
  r.first = t;
  r.last = t;
  return r;
}

TEST(SliceSpooler, RotatesByFlowTime) {
  // Three 5-minute windows of records, one record per minute, starting on
  // a window boundary (100200 = 334 * 300), decoded off the wire.
  flow::NetflowV5Encoder enc;
  std::vector<std::vector<std::uint8_t>> datagrams;
  for (int minute = 0; minute < 15; ++minute) {
    const std::vector<flow::FlowRecord> batch = {
        record_at(Timestamp(100200 + minute * 60))};
    for (auto& pkt : enc.encode(batch, Timestamp(100200 + minute * 60 + 1))) {
      datagrams.push_back(std::move(pkt));
    }
  }
  const auto replay = test::replay_in_wire_order(
      flow::ExportProtocol::kNetflowV5, 300, datagrams);

  ASSERT_EQ(replay.slices.size(), 3u);
  for (const auto& slice : replay.slices) {
    EXPECT_EQ(slice.records, 5u);
    EXPECT_EQ(slice.begin.seconds() % 300, 0);  // aligned window
    const auto trace = flow::read_trace(slice.image);
    ASSERT_TRUE(trace);
    EXPECT_EQ(trace->records.size(), 5u);
  }
  EXPECT_EQ(replay.records_spooled, 15u);
  EXPECT_EQ(replay.stats.malformed_packets, 0u);
}

TEST(SliceSpooler, FlushWithEmptyPartialSliceEmitsNothing) {
  std::vector<flow::TraceSlice> slices;
  flow::SliceSpooler spooler(
      300, [&](flow::TraceSlice&& s) { slices.push_back(std::move(s)); });

  // Nothing appended at all: flush must be a no-op, repeatedly.
  spooler.flush();
  spooler.flush();
  EXPECT_EQ(slices.size(), 0u);
  EXPECT_EQ(spooler.slices_emitted(), 0u);

  // One full window then flush; a second flush after the slice shipped
  // finds an empty partial and must not emit a ghost slice.
  spooler.append(record_at(Timestamp(100200)));
  spooler.flush();
  ASSERT_EQ(slices.size(), 1u);
  spooler.flush();
  EXPECT_EQ(slices.size(), 1u);
  EXPECT_EQ(spooler.slices_emitted(), 1u);
}

TEST(SliceSpooler, RecordExactlyOnRotationBoundaryOpensNewWindow) {
  std::vector<flow::TraceSlice> slices;
  flow::SliceSpooler spooler(
      300, [&](flow::TraceSlice&& s) { slices.push_back(std::move(s)); });

  // First record on an aligned boundary, second exactly one window later:
  // the boundary record belongs to the *new* window (half-open windows),
  // so the first slice must contain exactly the first record.
  for (const std::int64_t t : {100200L, 100200L + 300L}) {
    spooler.append(record_at(Timestamp(t)));
  }
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].begin, Timestamp(100200));
  EXPECT_EQ(slices[0].records, 1u);

  spooler.flush();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[1].begin, Timestamp(100200 + 300));
  EXPECT_EQ(slices[1].records, 1u);
  const auto trace = flow::read_trace(slices[1].image);
  ASSERT_TRUE(trace);
  ASSERT_EQ(trace->records.size(), 1u);
  EXPECT_EQ(trace->records[0].first, Timestamp(100200 + 300));
}

TEST(SliceSpooler, RejectsBadRotationWindow) {
  EXPECT_THROW(flow::SliceSpooler(0, [](flow::TraceSlice&&) {}),
               std::invalid_argument);
  // The daemon builds its spooler first, so it refuses before any worker
  // starts.
  EXPECT_THROW(runtime::ShardedCollectorDaemon({.rotation_seconds = 0},
                                               [](flow::TraceSlice&&) {}),
               std::invalid_argument);
}

// --- Collector daemon (one shard, one lane) -----------------------------------

TEST(ShardedDaemon, AnonymizesBeforeSpooling) {
  const flow::Anonymizer anon({1, 2}, flow::AnonymizationMode::kFullHash);
  std::vector<flow::TraceSlice> slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kNetflowV5,
       .shards = 1,
       .rotation_seconds = 300,
       .anonymizer = &anon},
      [&](flow::TraceSlice&& s) { slices.push_back(std::move(s)); });

  const auto original = record_at(Timestamp(5000));
  flow::NetflowV5Encoder enc;
  const std::vector<flow::FlowRecord> batch = {original};
  for (const auto& pkt : enc.encode(batch, Timestamp(5001))) daemon.ingest(pkt);
  daemon.flush();

  ASSERT_EQ(slices.size(), 1u);
  const auto trace = flow::read_trace(slices[0].image);
  ASSERT_TRUE(trace);
  ASSERT_EQ(trace->records.size(), 1u);
  EXPECT_NE(trace->records[0].src_addr, original.src_addr);  // hashed on premise
  EXPECT_EQ(trace->records[0].bytes, original.bytes);
}

TEST(ShardedDaemon, MalformedInputCountedNotSpooled) {
  std::vector<flow::TraceSlice> slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 1,
       .rotation_seconds = 60},
      [&](flow::TraceSlice&& s) { slices.push_back(std::move(s)); });
  const std::vector<std::uint8_t> junk = {9, 9, 9};
  daemon.ingest(junk);
  daemon.flush();
  EXPECT_EQ(daemon.wire_stats().malformed_packets, 1u);
  EXPECT_EQ(slices.size(), 0u);
  EXPECT_EQ(daemon.records_spooled(), 0u);
}

TEST(ShardedDaemon, EndToEndWithSynthesizedIpfix) {
  const auto reg = synth::AsRegistry::create_default();
  const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, reg,
                                        {.seed = 3});
  const synth::FlowSynthesizer synth(ixp.model, reg, {.connections_per_hour = 200});

  flow::IpfixEncoder encoder(1);
  std::vector<flow::FlowRecord> batch;
  std::vector<std::vector<std::uint8_t>> corpus;
  const auto ship = [&]() {
    for (auto& m : encoder.encode(batch, flow::batch_export_time(batch))) {
      corpus.push_back(std::move(m));
    }
    batch.clear();
  };
  synth.synthesize(TimeRange{Timestamp::from_date(Date(2020, 3, 25), 0),
                             Timestamp::from_date(Date(2020, 3, 25), 4)},
                   [&](const flow::FlowRecord& r) {
                     batch.push_back(r);
                     if (batch.size() == 64) ship();
                   });
  ship();

  std::size_t sliced_records = 0;
  std::vector<Timestamp> slice_starts;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 1,
       .ring_capacity = corpus.size() + 1,  // lossless
       .rotation_seconds = 3600},
      [&](flow::TraceSlice&& s) {
        sliced_records += s.records;
        slice_starts.push_back(s.begin);
      });
  for (const auto& m : corpus) daemon.ingest(m);
  daemon.flush();

  EXPECT_EQ(sliced_records, daemon.records_spooled());
  EXPECT_GE(slice_starts.size(), 4u);  // one slice per synthesized hour
  for (std::size_t i = 1; i < slice_starts.size(); ++i) {
    EXPECT_LT(slice_starts[i - 1], slice_starts[i]);  // monotone rotation
  }
}

// --- MobilityModel --------------------------------------------------------------

TEST(Mobility, BaselineIsNearZeroBeforeOutbreak) {
  const synth::MobilityModel model(synth::Region::kCentralEurope, 1);
  const auto d = model.day(Date(2020, 1, 21));  // Tuesday, pre-outbreak
  EXPECT_NEAR(d.workplaces, 0.0, 6.0);
  EXPECT_NEAR(d.residential, 0.0, 3.0);
}

TEST(Mobility, LockdownCollapsesWorkplaceVisits) {
  const synth::MobilityModel model(synth::Region::kSouthernEurope, 1);
  const auto d = model.day(Date(2020, 4, 7));  // Tuesday, full lockdown
  EXPECT_LT(d.workplaces, -50.0);
  EXPECT_LT(d.transit_stations, -55.0);
  EXPECT_GT(d.residential, 12.0);
}

TEST(Mobility, WeekendsAlwaysShowLowerWorkplacePresence) {
  const synth::MobilityModel model(synth::Region::kCentralEurope, 1);
  // Pre-pandemic Saturday vs Tuesday.
  EXPECT_LT(model.day(Date(2020, 1, 25)).workplaces,
            model.day(Date(2020, 1, 21)).workplaces - 20.0);
}

TEST(Mobility, CorrelatesWithResidentialTrafficGrowth) {
  // The paper's cross-dataset claim: traffic growth at the residential ISP
  // tracks the mobility shift. Compare daily ISP model volume (relative to
  // a fixed weekday baseline) against residential mobility.
  const auto reg = synth::AsRegistry::create_default();
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg,
                                        {.seed = 42, .enterprise_transit = false});
  const synth::MobilityModel mobility(synth::Region::kCentralEurope, 42);

  std::vector<double> traffic, residential, workplaces;
  for (Date d(2020, 2, 3); d < Date(2020, 5, 1); d = d.plus_days(1)) {
    if (d.is_weekend_day()) continue;  // compare like with like
    double day_total = 0.0;
    for (unsigned h = 0; h < 24; ++h) {
      day_total += isp.model.total_expected(Timestamp::from_date(d, h));
    }
    traffic.push_back(day_total);
    residential.push_back(mobility.day(d).residential);
    workplaces.push_back(mobility.day(d).workplaces);
  }
  EXPECT_GT(stats::pearson(traffic, residential), 0.9);
  EXPECT_LT(stats::pearson(traffic, workplaces), -0.9);
}

}  // namespace
}  // namespace lockdown
