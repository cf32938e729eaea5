// Streaming-layer tests: double-banked window rotation (anchor/alignment,
// late policy, gap caps, flush idempotence, flow-scale), the moving-average
// threshold semantics (warm-up, preceding-windows comparison, EWMA), the
// StreamMonitor engine glue over MonitorSet batch hooks, and concurrency
// suites (StreamWindowThreads / the engine's concurrent routing) that the
// TSan CI job runs via -R 'StreamWindow|MovingAvg'. StreamLockdownShift --
// the online-vs-offline acceptance check -- is named outside that filter
// on purpose: it is a long synthesis run, not a race hunt.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "filter/monitor.hpp"
#include "flow/ipfix.hpp"
#include "flow/pipeline.hpp"
#include "net/civil_time.hpp"
#include "obs/metrics.hpp"
#include "stream/engine.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

namespace lockdown {
namespace {

using flow::FlowRecord;
using flow::IpProtocol;
using net::Timestamp;
using stream::KeyField;
using stream::MavgConfig;
using stream::MavgMetric;
using stream::MovingAverage;
using stream::WindowAggregator;
using stream::WindowKey;
using stream::WindowResult;

FlowRecord rec(std::int64_t t, std::uint16_t dst_port = 443,
               IpProtocol proto = IpProtocol::kTcp,
               std::uint64_t bytes = 1000, std::uint64_t packets = 10,
               std::uint32_t src_as = 64500, std::uint32_t dst_as = 64501) {
  FlowRecord r;
  r.src_addr = net::Ipv4Address(198, 18, 0, 1);
  r.dst_addr = net::Ipv4Address(198, 18, 0, 2);
  r.src_port = 51000;
  r.dst_port = dst_port;
  r.protocol = proto;
  r.bytes = bytes;
  r.packets = packets;
  r.first = Timestamp(t);
  r.last = Timestamp(t);
  r.src_as = net::Asn(src_as);
  r.dst_as = net::Asn(dst_as);
  return r;
}

std::vector<WindowResult> drain_all(WindowAggregator& agg) {
  std::vector<WindowResult> out;
  agg.drain([&](WindowResult&& r) { out.push_back(std::move(r)); });
  return out;
}

// ---------------------------------------------------------------------------
// StreamWindow: single-threaded aggregator semantics.
// ---------------------------------------------------------------------------

TEST(StreamWindow, ParsesKeyFieldsAndTuples) {
  EXPECT_EQ(stream::parse_key_field("dst_as"), KeyField::kDstAs);
  EXPECT_EQ(stream::parse_key_field("service"), KeyField::kService);
  EXPECT_EQ(stream::parse_key_field("bogus"), std::nullopt);

  const auto tuple = stream::parse_key_tuple(" dst_as , service ");
  ASSERT_TRUE(tuple.has_value());
  ASSERT_EQ(tuple->size(), 2u);
  EXPECT_EQ((*tuple)[0], KeyField::kDstAs);
  EXPECT_EQ((*tuple)[1], KeyField::kService);

  const auto scalar = stream::parse_key_tuple("");
  ASSERT_TRUE(scalar.has_value());
  EXPECT_TRUE(scalar->empty());

  EXPECT_EQ(stream::parse_key_tuple("dst_as,nope"), std::nullopt);
  EXPECT_EQ(stream::parse_key_tuple("proto,proto,proto,proto,proto"),
            std::nullopt);  // more than kMaxKeyFields
}

TEST(StreamWindow, KeyToStringSpellsFields) {
  const stream::KeyTuple tuple{KeyField::kDstAs, KeyField::kService};
  WindowKey key;
  key.v[0] = 3320;
  key.v[1] = (static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(IpProtocol::kTcp))
              << 16) |
             443;
  EXPECT_EQ(stream::key_to_string(tuple, key), "dst_as=AS3320,service=TCP/443");
  EXPECT_EQ(stream::key_to_string({}, key), "*");
}

TEST(StreamWindow, RejectsBadConfig) {
  EXPECT_THROW(WindowAggregator({.window_seconds = 0}),
               std::invalid_argument);
  EXPECT_THROW(WindowAggregator({.window_seconds = -5}),
               std::invalid_argument);
  stream::KeyTuple too_long(stream::kMaxKeyFields + 1, KeyField::kProto);
  EXPECT_THROW(WindowAggregator({.window_seconds = 60, .key = too_long}),
               std::invalid_argument);
}

TEST(StreamWindow, AnchorsOnFirstRecordAlignedToWindowMultiple) {
  WindowAggregator agg({.window_seconds = 60});
  EXPECT_EQ(agg.current_window_begin(), std::nullopt);
  const std::vector<FlowRecord> batch{rec(130)};
  agg.accumulate(batch, {});
  ASSERT_TRUE(agg.current_window_begin().has_value());
  EXPECT_EQ(agg.current_window_begin()->seconds(), 120);
  EXPECT_EQ(agg.pending(), 0u);
}

TEST(StreamWindow, RotatesOnRecordTimeAndNumbersSequence) {
  WindowAggregator agg({.window_seconds = 60});
  std::vector<FlowRecord> batch{rec(0), rec(30), rec(59)};
  agg.accumulate(batch, {});
  EXPECT_EQ(agg.pending(), 0u);  // still filling [0, 60)

  batch = {rec(60)};  // crosses the boundary
  agg.accumulate(batch, {});
  auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].begin.seconds(), 0);
  EXPECT_EQ(done[0].seq, 0);
  EXPECT_EQ(done[0].total.flows, 3u);
  EXPECT_EQ(done[0].total.bytes, 3000u);
  EXPECT_EQ(done[0].total.packets, 30u);

  batch = {rec(185)};  // skips [120, 180): one empty window emitted
  agg.accumulate(batch, {});
  done = drain_all(agg);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].begin.seconds(), 60);
  EXPECT_EQ(done[0].seq, 1);
  EXPECT_EQ(done[0].total.flows, 1u);  // the rec(60) record
  EXPECT_EQ(done[1].begin.seconds(), 120);
  EXPECT_EQ(done[1].seq, 2);
  EXPECT_TRUE(done[1].empty());
  EXPECT_EQ(agg.current_window_begin()->seconds(), 180);
  EXPECT_EQ(agg.windows_completed(), 3u);
}

TEST(StreamWindow, LateRecordsCountIntoCurrentWindow) {
  WindowAggregator agg({.window_seconds = 60});
  std::vector<FlowRecord> batch{rec(10), rec(70)};
  agg.accumulate(batch, {});                    // now filling [60, 120)
  batch = {rec(5, 443, IpProtocol::kTcp, 7, 1)};  // late straggler
  agg.accumulate(batch, {});
  agg.flush();
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].total.flows, 1u);  // [0, 60): only rec(10)
  EXPECT_EQ(done[1].begin.seconds(), 60);
  EXPECT_EQ(done[1].total.flows, 2u);  // rec(70) + the late record
  EXPECT_EQ(done[1].total.bytes, 1007u);
}

TEST(StreamWindow, LateRecordsAreCountedAndStillFolded) {
  WindowAggregator agg({.window_seconds = 60});
  std::vector<FlowRecord> batch{rec(10), rec(70)};
  EXPECT_EQ(agg.accumulate(batch, {}), 0u);  // now filling [60, 120)
  // k = 3 back-dated records (one per earlier slot, one at the boundary
  // edge), one on-time record, and a back-dated miss the mask drops.
  batch = {rec(5, 443, IpProtocol::kTcp, 7, 1), rec(80),
           rec(59, 443, IpProtocol::kTcp, 20, 2),
           rec(0, 443, IpProtocol::kTcp, 300, 3), rec(1)};
  const std::vector<std::uint8_t> hits{1, 1, 1, 1, 0};
  EXPECT_EQ(agg.accumulate(batch, hits), 3u);
  EXPECT_EQ(agg.late_records(), 3u);
  agg.flush();
  const auto done = drain_all(agg);
  // Totals are the late policy's: the three stragglers fold into [60, 120).
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].total, (stream::WindowAcc{1, 1000, 10}));
  EXPECT_EQ(done[1].begin.seconds(), 60);
  // rec(70), the on-time rec(80), and the three stragglers.
  EXPECT_EQ(done[1].total, (stream::WindowAcc{5, 1000 + 1000 + 7 + 20 + 300,
                                              10 + 10 + 1 + 2 + 3}));
  EXPECT_EQ(agg.late_records(), 3u);
}

TEST(StreamWindow, GapEmitsEmptyWindowsCappedThenSkips) {
  WindowAggregator agg({.window_seconds = 60, .max_gap_windows = 4});
  std::vector<FlowRecord> batch{rec(0)};
  agg.accumulate(batch, {});
  batch = {rec(100000)};  // a gap of 1666 windows
  agg.accumulate(batch, {});
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 4u);  // the data window + 3 empties (the cap)
  EXPECT_EQ(done[0].seq, 0);
  EXPECT_EQ(done[0].total.flows, 1u);
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(done[i].empty());
    EXPECT_EQ(done[i].seq, i);
    EXPECT_EQ(done[i].begin.seconds(), i * 60);
  }
  // The clock skipped: the filling window is the one containing t=100000
  // and its seq records the jump.
  EXPECT_EQ(agg.current_window_begin()->seconds(), 99960);
  agg.flush();
  const auto last = drain_all(agg);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].seq, 100000 / 60);
  EXPECT_EQ(last[0].begin.seconds(), 99960);
}

TEST(StreamWindow, FlushEmitsPartialWindowOnceAndIsIdempotent) {
  WindowAggregator agg({.window_seconds = 60});
  EXPECT_NO_THROW(agg.flush());  // before any record: no-op
  EXPECT_EQ(agg.pending(), 0u);

  std::vector<FlowRecord> batch{rec(10), rec(20)};
  agg.accumulate(batch, {});
  agg.flush();
  auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].total.flows, 2u);

  agg.flush();  // nothing accumulated since: must not invent a window
  EXPECT_EQ(agg.pending(), 0u);

  batch = {rec(30)};  // late record after a flush: next window, seq + 1
  agg.accumulate(batch, {});
  agg.flush();
  done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].seq, 1);
  EXPECT_EQ(done[0].begin.seconds(), 60);
  EXPECT_EQ(done[0].total.flows, 1u);
}

TEST(StreamWindow, AdvanceRotatesWithoutRecords) {
  WindowAggregator agg({.window_seconds = 60});
  agg.advance(Timestamp(500));  // before any record: no-op
  EXPECT_EQ(agg.pending(), 0u);

  std::vector<FlowRecord> batch{rec(0)};
  agg.accumulate(batch, {});
  agg.advance(Timestamp(250));
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 4u);  // [0,60) with data + three empties
  EXPECT_EQ(done[0].total.flows, 1u);
  EXPECT_TRUE(done[1].empty());
  EXPECT_TRUE(done[3].empty());
  EXPECT_EQ(agg.current_window_begin()->seconds(), 240);
}

TEST(StreamWindow, HitMaskSelectsSubsetEmptyMeansAll) {
  WindowAggregator agg({.window_seconds = 60});
  const std::vector<FlowRecord> batch{rec(0), rec(1), rec(2)};
  const std::vector<std::uint8_t> hits{1, 0, 1};
  agg.accumulate(batch, hits);
  agg.flush();
  auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].total.flows, 2u);

  WindowAggregator all({.window_seconds = 60});
  all.accumulate(batch, {});
  all.flush();
  done = drain_all(all);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].total.flows, 3u);
}

TEST(StreamWindow, KeyedRowsPartitionTheTotal) {
  WindowAggregator agg(
      {.window_seconds = 60,
       .key = {KeyField::kDstAs, KeyField::kService}});
  const std::vector<FlowRecord> batch{
      rec(0, 443, IpProtocol::kTcp, 100, 1, 64500, 3320),
      rec(1, 443, IpProtocol::kTcp, 200, 2, 64500, 3320),
      rec(2, 443, IpProtocol::kUdp, 400, 4, 64500, 3320),
      rec(3, 53, IpProtocol::kUdp, 800, 8, 64500, 15169),
  };
  agg.accumulate(batch, {});
  agg.flush();
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].total.flows, 4u);
  EXPECT_EQ(done[0].total.bytes, 1500u);
  ASSERT_EQ(done[0].rows.size(), 3u);
  std::uint64_t row_flows = 0, row_bytes = 0;
  std::map<std::string, std::uint64_t> by_key;
  for (const auto& [k, acc] : done[0].rows) {
    row_flows += acc.flows;
    row_bytes += acc.bytes;
    by_key[stream::key_to_string(agg.config().key, k)] = acc.bytes;
  }
  EXPECT_EQ(row_flows, done[0].total.flows);
  EXPECT_EQ(row_bytes, done[0].total.bytes);
  EXPECT_EQ(by_key.at("dst_as=AS3320,service=TCP/443"), 300u);
  EXPECT_EQ(by_key.at("dst_as=AS3320,service=UDP/443"), 400u);
  EXPECT_EQ(by_key.at("dst_as=AS15169,service=UDP/53"), 800u);
}

TEST(StreamWindow, ColumnPointersOverrideRecordFields) {
  WindowAggregator agg({.window_seconds = 60, .key = {KeyField::kDstAs}});
  const std::vector<FlowRecord> batch{rec(0, 443, IpProtocol::kTcp, 100, 1,
                                          64500, /*dst_as=*/0)};
  const std::uint32_t dst_col[] = {2906};  // the resolved value
  agg.accumulate(batch, {}, nullptr, nullptr, dst_col);
  agg.flush();
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  ASSERT_EQ(done[0].rows.size(), 1u);
  EXPECT_EQ(done[0].rows[0].first.v[0], 2906u);
}

TEST(StreamWindow, FlowScaleRescalesFlowCountsOnly) {
  WindowAggregator agg({.window_seconds = 60, .key = {KeyField::kService}});
  agg.set_flow_scale(4.0);
  const std::vector<FlowRecord> batch{rec(0, 443), rec(1, 443), rec(2, 53)};
  agg.accumulate(batch, {});
  agg.flush();
  const auto done = drain_all(agg);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].total.flows, 12u);     // 3 * 4
  EXPECT_EQ(done[0].total.bytes, 3000u);   // untouched
  EXPECT_EQ(done[0].total.packets, 30u);   // untouched
  std::uint64_t row_flows = 0;
  for (const auto& [k, acc] : done[0].rows) row_flows += acc.flows;
  EXPECT_EQ(row_flows, 12u);
}

// ---------------------------------------------------------------------------
// StreamWindowThreads: rotation under concurrent ingest (TSan job).
// ---------------------------------------------------------------------------

TEST(StreamWindowThreads, ConcurrentAccumulateAndRotateConservesEverything) {
  WindowAggregator agg({.window_seconds = 100});
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 200;
  constexpr int kPerBatch = 16;
  std::atomic<std::int64_t> clock{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&]() {
      std::vector<FlowRecord> batch;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        batch.clear();
        for (int i = 0; i < kPerBatch; ++i) {
          const std::int64_t t = clock.fetch_add(1, std::memory_order_relaxed);
          batch.push_back(rec(t, 443, IpProtocol::kTcp, 10, 1));
        }
        agg.accumulate(batch, {});
      }
    });
  }
  // A rotator hammering advance() concurrently: flush must never block
  // ingest, lose a record, or emit a window twice.
  std::atomic<bool> stop{false};
  std::thread rotator([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      agg.advance(Timestamp(clock.load(std::memory_order_relaxed)));
    }
  });
  for (auto& t : workers) t.join();
  stop.store(true);
  rotator.join();
  agg.flush();

  const auto done = drain_all(agg);
  std::uint64_t flows = 0, bytes = 0;
  std::set<std::int64_t> seqs;
  for (const auto& r : done) {
    flows += r.total.flows;
    bytes += r.total.bytes;
    EXPECT_TRUE(seqs.insert(r.seq).second) << "seq emitted twice: " << r.seq;
  }
  const std::uint64_t fed = kThreads * kBatchesPerThread * kPerBatch;
  EXPECT_EQ(flows, fed);
  EXPECT_EQ(bytes, fed * 10);
}

// ---------------------------------------------------------------------------
// MovingAvg: threshold semantics.
// ---------------------------------------------------------------------------

WindowResult window_of(std::int64_t begin, std::int64_t seq,
                       std::uint64_t flows) {
  WindowResult r;
  r.begin = Timestamp(begin);
  r.seq = seq;
  r.total.flows = flows;
  r.total.bytes = flows * 100;
  r.total.packets = flows * 2;
  return r;
}

TEST(MovingAvg, RejectsBadConfig) {
  EXPECT_THROW(MovingAverage({.k = 0}), std::invalid_argument);
  EXPECT_THROW(MovingAverage({.k = 3, .ewma = true, .alpha = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(MovingAverage({.k = 3, .ewma = true, .alpha = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(MovingAverage({.k = 3, .overlimit = -1.0}),
               std::invalid_argument);
}

TEST(MovingAvg, WarmupNeverFires) {
  MovingAverage mavg({.k = 3, .overlimit = 1.01, .underlimit = 0.99});
  // Wildly varying values: during warm-up nothing may fire.
  EXPECT_EQ(mavg.observe(window_of(0, 0, 1)), std::nullopt);
  EXPECT_EQ(mavg.observe(window_of(60, 1, 1000)), std::nullopt);
  EXPECT_FALSE(mavg.warmed_up());
  // The K-th window completes warm-up but is itself still compared against
  // an unfinished average -- it must not fire either.
  EXPECT_EQ(mavg.observe(window_of(120, 2, 1)), std::nullopt);
  EXPECT_TRUE(mavg.warmed_up());
  // Fourth window is past warm-up and compares against mean(1, 1000, 1).
  const auto e = mavg.observe(window_of(180, 3, 1000));
  ASSERT_TRUE(e.has_value());
}

TEST(MovingAvg, OverlimitComparesAgainstPrecedingMean) {
  MovingAverage mavg({.k = 3, .overlimit = 1.5});
  EXPECT_EQ(mavg.observe(window_of(0, 0, 10)), std::nullopt);
  EXPECT_EQ(mavg.observe(window_of(60, 1, 10)), std::nullopt);
  EXPECT_EQ(mavg.observe(window_of(120, 2, 10)), std::nullopt);
  EXPECT_EQ(mavg.observe(window_of(180, 3, 14)), std::nullopt);  // 14 < 15
  // mean of (10,10,14) = 11.33; 20 > 17.0 fires, and the event's mavg
  // excludes the firing window itself.
  const auto e = mavg.observe(window_of(240, 4, 20));
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->over);
  EXPECT_DOUBLE_EQ(e->value, 20.0);
  EXPECT_NEAR(e->mavg, (10.0 + 10.0 + 14.0) / 3.0, 1e-9);
  EXPECT_EQ(e->seq, 4);
  EXPECT_EQ(e->window_begin.seconds(), 240);
}

TEST(MovingAvg, UnderlimitFiresOnEmptyWindows) {
  MovingAverage mavg({.k = 2, .underlimit = 0.5});
  EXPECT_EQ(mavg.observe(window_of(0, 0, 10)), std::nullopt);
  EXPECT_EQ(mavg.observe(window_of(60, 1, 10)), std::nullopt);
  const auto e = mavg.observe(window_of(120, 2, 0));  // an empty window
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->over);
  EXPECT_DOUBLE_EQ(e->value, 0.0);
  EXPECT_DOUBLE_EQ(e->mavg, 10.0);
}

TEST(MovingAvg, MetricSelectsColumn) {
  MovingAverage flows({.k = 1, .metric = MavgMetric::kFlows});
  MovingAverage bytes({.k = 1, .metric = MavgMetric::kBytes});
  MovingAverage packets({.k = 1, .metric = MavgMetric::kPackets});
  const auto w = window_of(0, 0, 7);
  EXPECT_DOUBLE_EQ(flows.value_of(w), 7.0);
  EXPECT_DOUBLE_EQ(bytes.value_of(w), 700.0);
  EXPECT_DOUBLE_EQ(packets.value_of(w), 14.0);
  EXPECT_EQ(stream::parse_mavg_metric("bytes"), MavgMetric::kBytes);
  EXPECT_EQ(stream::parse_mavg_metric("nope"), std::nullopt);
}

TEST(MovingAvg, EwmaTracksAndFires) {
  MovingAverage mavg({.k = 1, .ewma = true, .alpha = 0.5, .overlimit = 2.0});
  EXPECT_EQ(mavg.observe(window_of(0, 0, 10)), std::nullopt);  // warm-up
  EXPECT_DOUBLE_EQ(mavg.average(), 10.0);  // seeded, not alpha-blended
  const auto e = mavg.observe(window_of(60, 1, 40));
  ASSERT_TRUE(e.has_value());
  EXPECT_DOUBLE_EQ(e->mavg, 10.0);
  EXPECT_DOUBLE_EQ(mavg.average(), 25.0);  // 0.5*40 + 0.5*10
}

// ---------------------------------------------------------------------------
// StreamWindowEngine: StreamMonitor over MonitorSet hooks (name kept under
// the StreamWindow prefix so the TSan job picks the concurrent test up).
// ---------------------------------------------------------------------------

TEST(StreamWindowEngine, HooksAggregatePerObjectAndDetachOnDestruction) {
  filter::MonitorSet monitors;
  monitors.add("web", "proto tcp and dst port 443");
  monitors.add("dns", "proto udp and dst port 53");
  {
    stream::StreamMonitor streamer(
        monitors, {.window = {.window_seconds = 60}});
    for (const auto& obj : monitors) EXPECT_TRUE(obj->has_batch_hook());

    std::vector<FlowRecord> batch{
        rec(0, 443, IpProtocol::kTcp), rec(1, 443, IpProtocol::kTcp),
        rec(2, 53, IpProtocol::kUdp), rec(65, 443, IpProtocol::kTcp)};
    monitors.route_batch(batch);
    streamer.flush();

    std::map<std::string, std::vector<std::uint64_t>> windows;
    streamer.set_window_sink([&](const stream::ObjectStream& os,
                                 const stream::WindowResult& r) {
      windows[os.name()].push_back(r.total.flows);
    });
    const std::size_t drained = streamer.poll();
    // web: [0,60) with 2 flows rotated by rec(65), plus the partial [60,120)
    // flushed with 1 flow. dns: [0,60) with 1 flow rotated by the hook's
    // batch-clock advance; its post-rotation bank is clean, so flush adds
    // nothing (no invented trailing window).
    EXPECT_EQ(drained, 3u);
    ASSERT_EQ(windows["web"].size(), 2u);
    EXPECT_EQ(windows["web"][0], 2u);
    EXPECT_EQ(windows["web"][1], 1u);
    ASSERT_EQ(windows["dns"].size(), 1u);
    EXPECT_EQ(windows["dns"][0], 1u);
    ASSERT_NE(streamer.find("web"), nullptr);
    EXPECT_EQ(streamer.find("web")->windows(), 2u);
    EXPECT_EQ(streamer.find("nope"), nullptr);
  }
  // Destructor must leave the MonitorSet clean for the next wiring.
  for (const auto& obj : monitors) EXPECT_FALSE(obj->has_batch_hook());
}

TEST(StreamWindowEngine, ZeroHitBatchesStillRotateAnchoredObjects) {
  filter::MonitorSet monitors;
  monitors.add("quiet", "proto udp and dst port 9");
  monitors.add("never", "proto udp and dst port 7");
  stream::StreamMonitor streamer(monitors,
                                 {.window = {.window_seconds = 60}});
  // One matching record anchors 'quiet'; everything after misses it.
  std::vector<FlowRecord> batch{rec(10, 9, IpProtocol::kUdp)};
  monitors.route_batch(batch);
  batch = {rec(200, 443, IpProtocol::kTcp)};  // zero hits for both objects
  monitors.route_batch(batch);
  (void)streamer.poll();
  // The quiet object's clock followed the batch: [0,60) with its one flow
  // plus the empty windows its moving average would need.
  ASSERT_NE(streamer.find("quiet"), nullptr);
  EXPECT_EQ(streamer.find("quiet")->windows(), 3u);
  // An object that never matched has no window anchor and must not invent
  // windows off other traffic.
  ASSERT_NE(streamer.find("never"), nullptr);
  EXPECT_EQ(streamer.find("never")->windows(), 0u);
}

TEST(StreamWindowEngine, EventsFireCountersSinksAndMetrics) {
  filter::MonitorSet monitors;
  monitors.add("web", "proto tcp and dst port 443");
  stream::StreamConfig cfg;
  cfg.window.window_seconds = 60;
  cfg.mavg = MavgConfig{.k = 2, .overlimit = 1.5};
  stream::StreamMonitor streamer(monitors, cfg);
  obs::Registry registry;
  streamer.bind_metrics(registry);

  std::vector<stream::MavgEvent> events;
  streamer.set_event_sink(
      [&](const stream::ObjectStream&, const stream::MavgEvent& e) {
        events.push_back(e);
      });

  // Two calm windows (warm-up), then a 10x spike.
  std::vector<FlowRecord> batch;
  for (std::int64_t w = 0; w < 2; ++w) {
    batch.push_back(rec(w * 60, 443, IpProtocol::kTcp));
  }
  for (int i = 0; i < 10; ++i) {
    batch.push_back(rec(125 + i, 443, IpProtocol::kTcp));
  }
  monitors.route_batch(batch);
  streamer.flush();
  (void)streamer.poll();

  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].over);
  EXPECT_DOUBLE_EQ(events[0].value, 10.0);
  EXPECT_DOUBLE_EQ(events[0].mavg, 1.0);
  const auto* os = streamer.find("web");
  ASSERT_NE(os, nullptr);
  EXPECT_EQ(os->overlimit_events(), 1u);
  EXPECT_EQ(os->underlimit_events(), 0u);
  EXPECT_DOUBLE_EQ(os->last_value(), 10.0);

  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("stream_windows_total", "object=\"web\""), 3u);
  EXPECT_EQ(
      snap.counter_value("stream_mavg_overlimit_total", "object=\"web\""),
      1u);
  const std::string line =
      stream::StreamMonitor::format_event(*os, events[0]);
  EXPECT_NE(line.find("overlimit"), std::string::npos);
  EXPECT_NE(line.find("object=web"), std::string::npos);

  streamer.unbind_metrics();
  EXPECT_EQ(registry.expose_text().find("stream_"), std::string::npos);
}

TEST(StreamWindowEngine, LateRecordCounterPerObject) {
  filter::MonitorSet monitors;
  monitors.add("web", "proto tcp and dst port 443");
  monitors.add("dns", "proto udp and dst port 53");
  stream::StreamMonitor streamer(monitors,
                                 {.window = {.window_seconds = 60}});
  obs::Registry registry;
  streamer.bind_metrics(registry);

  // Anchor both objects in [60, 120), then route k = 4 back-dated web
  // records and one back-dated dns record among on-time traffic.
  std::vector<FlowRecord> batch{rec(70, 443, IpProtocol::kTcp),
                                rec(71, 53, IpProtocol::kUdp)};
  monitors.route_batch(batch);
  batch = {rec(3, 443, IpProtocol::kTcp),  rec(90, 443, IpProtocol::kTcp),
           rec(20, 443, IpProtocol::kTcp), rec(40, 53, IpProtocol::kUdp),
           rec(58, 443, IpProtocol::kTcp), rec(59, 443, IpProtocol::kTcp)};
  monitors.route_batch(batch);
  streamer.flush();
  std::map<std::string, std::vector<stream::WindowAcc>> windows;
  streamer.set_window_sink(
      [&](const stream::ObjectStream& os, const stream::WindowResult& r) {
        windows[os.name()].push_back(r.total);
      });
  (void)streamer.poll();

  EXPECT_EQ(streamer.find("web")->late_records(), 4u);
  EXPECT_EQ(streamer.find("dns")->late_records(), 1u);
  const auto snap = registry.snapshot();
  EXPECT_EQ(
      snap.counter_value("stream_late_records_total", "object=\"web\""), 4u);
  EXPECT_EQ(
      snap.counter_value("stream_late_records_total", "object=\"dns\""), 1u);
  EXPECT_NE(registry.expose_text().find("# HELP stream_late_records_total"),
            std::string::npos);
  // The count changes no window: every record sits in the one window.
  ASSERT_EQ(windows["web"].size(), 1u);
  EXPECT_EQ(windows["web"][0], (stream::WindowAcc{6, 6000, 60}));
  ASSERT_EQ(windows["dns"].size(), 1u);
  EXPECT_EQ(windows["dns"][0], (stream::WindowAcc{2, 2000, 20}));

  streamer.unbind_metrics();
  EXPECT_EQ(registry.expose_text().find("stream_late"), std::string::npos);
}

TEST(StreamWindowEngine, ConcurrentRouteBatchConservesPerObjectTotals) {
  filter::MonitorSet monitors;
  monitors.add("web", "proto tcp and dst port 443");
  monitors.add("dns", "proto udp and dst port 53");
  stream::StreamMonitor streamer(monitors,
                                 {.window = {.window_seconds = 100}});
  constexpr int kThreads = 4;
  constexpr int kBatchesPerThread = 150;
  constexpr int kPerBatch = 12;  // 8 web + 4 dns
  std::atomic<std::int64_t> clock{0};
  std::atomic<std::uint64_t> polled{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&]() {
      std::vector<FlowRecord> batch;
      for (int b = 0; b < kBatchesPerThread; ++b) {
        batch.clear();
        for (int i = 0; i < kPerBatch; ++i) {
          const std::int64_t t = clock.fetch_add(1, std::memory_order_relaxed);
          batch.push_back(i < 8 ? rec(t, 443, IpProtocol::kTcp)
                                : rec(t, 53, IpProtocol::kUdp));
        }
        monitors.route_batch(batch);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread poller([&]() {  // the consumer loop of a live daemon
    while (!stop.load(std::memory_order_relaxed)) {
      polled.fetch_add(streamer.poll(), std::memory_order_relaxed);
    }
  });
  for (auto& t : workers) t.join();
  stop.store(true);
  poller.join();
  streamer.flush();
  std::map<std::string, std::uint64_t> flows;
  streamer.set_window_sink([&](const stream::ObjectStream& os,
                               const stream::WindowResult& r) {
    flows[os.name()] += r.total.flows;
  });
  (void)streamer.poll();

  // Windows drained by the concurrent poller are counted via the object
  // counters; the sink only saw the tail. Check the aggregator totals.
  const std::uint64_t batches = kThreads * kBatchesPerThread;
  ASSERT_NE(streamer.find("web"), nullptr);
  EXPECT_EQ(monitors.find("web")->flows(), batches * 8);
  EXPECT_EQ(monitors.find("dns")->flows(), batches * 4);
  std::uint64_t windows_total = 0;
  for (const auto& os : streamer) windows_total += os->windows();
  EXPECT_GE(windows_total, 2u);
}

// ---------------------------------------------------------------------------
// StreamLockdownShift: the acceptance criterion -- the online detector
// flags the synth lockdown change-point within one window of the offline
// baseline diff on the same stream (full wire pipeline in between).
// ---------------------------------------------------------------------------

TEST(StreamLockdownShift, OnlineDetectorMatchesOfflineBaselineWithinOneWindow) {
  const auto registry = synth::AsRegistry::create_default();
  const auto model = synth::build_mixed_scenario(registry, {.seed = 42});
  const net::TimeRange range{
      Timestamp::from_date(net::Date(2020, 2, 24)),
      Timestamp::from_date(net::Date(2020, 3, 29))};
  constexpr std::size_t kK = 7;
  constexpr double kOver = 1.25;

  filter::MonitorSet monitors(&registry.trie());
  const auto& vpn =
      monitors.add("vpn", "proto udp and dst port 1194,4500,500");
  stream::StreamConfig cfg;
  cfg.window.window_seconds = net::kSecondsPerDay;
  cfg.mavg = MavgConfig{.k = kK, .overlimit = kOver};
  stream::StreamMonitor streamer(monitors, cfg);
  std::vector<stream::MavgEvent> online;
  streamer.set_event_sink(
      [&](const stream::ObjectStream&, const stream::MavgEvent& e) {
        online.push_back(e);
      });

  // Online: IPFIX encode -> wire decode -> route_batch -> window hooks.
  flow::Collector collector(flow::ExportProtocol::kIpfix,
                            monitors.batch_sink());
  flow::IpfixEncoder encoder(700);
  flow::PacketBatch packets;
  std::vector<FlowRecord> batch;
  std::vector<FlowRecord> raw;
  const auto ship = [&]() {
    if (batch.empty()) return;
    packets.clear();
    encoder.encode_batch(batch, flow::batch_export_time(batch), packets);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      collector.ingest(packets.packet(i));
    }
    batch.clear();
    (void)streamer.poll();
  };
  const synth::FlowSynthesizer synth(model, registry,
                                     {.connections_per_hour = 120});
  synth.synthesize(range, [&](const FlowRecord& r) {
    raw.push_back(r);
    batch.push_back(r);
    if (batch.size() == 64) ship();
  });
  ship();
  streamer.flush();
  (void)streamer.poll();

  // Offline: identical rule over day sums of the raw records.
  std::map<std::int64_t, std::uint64_t> daily;
  for (const auto& r : raw) {
    if (vpn.filter().match(r)) ++daily[r.first.floor_day().seconds()];
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> days(daily.begin(),
                                                           daily.end());
  std::optional<std::int64_t> offline_day;
  double sum = 0.0;
  for (std::size_t i = 0; i < days.size(); ++i) {
    const double v = static_cast<double>(days[i].second);
    if (i >= kK) {
      if (!offline_day && v > (sum / kK) * kOver) {
        offline_day = days[i].first;
      }
      sum -= static_cast<double>(days[i - kK].second);
    }
    sum += v;
  }

  ASSERT_TRUE(offline_day.has_value())
      << "offline baseline found no change-point";
  ASSERT_FALSE(online.empty()) << "online detector never fired";
  const std::int64_t delta =
      (online.front().window_begin.seconds() - *offline_day) /
      net::kSecondsPerDay;
  EXPECT_LE(delta, 1);
  EXPECT_GE(delta, -1);
  // And the change-point is where the paper put it: inside the ramp from
  // outbreak behaviour to full lockdown (Mar 13 - Mar 22 in CE).
  const net::Date flagged =
      Timestamp(online.front().window_begin.seconds()).date();
  EXPECT_GE(flagged, net::Date(2020, 3, 2));
  EXPECT_LE(flagged, net::Date(2020, 3, 22));
}

}  // namespace
}  // namespace lockdown
