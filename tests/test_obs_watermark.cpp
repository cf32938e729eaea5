// Pipeline latency watermark tests (obs/watermark.hpp + the plumbing
// through the collector daemon and the stream engine):
//
//   PipelineWatermark  thread-local arrival stamps, the stage-latency
//                      histograms, and the released-watermark monotonicity
//                      contract of the sharded daemon's ticket reorder.
//   StreamWatermark    arrival-watermark carry through WindowAggregator
//                      banks, and the acceptance e2e: a lane delayed by
//                      250 ms moves exactly pipeline_stage_latency_ms and
//                      stream_watermark_lag_ms.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "filter/monitor.hpp"
#include "flow/ipfix.hpp"
#include "flow/pipeline.hpp"
#include "net/civil_time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watermark.hpp"
#include "runtime/sharded_daemon.hpp"
#include "stream/engine.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

namespace {

using namespace lockdown;

constexpr std::uint64_t kMs = 1'000'000;  // trace_now_ns is nanoseconds

std::vector<flow::FlowRecord> synth_records(std::size_t hours) {
  const auto registry = synth::AsRegistry::create_default();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                       {.seed = 11});
  const synth::FlowSynthesizer synth(vp.model, registry,
                                     {.connections_per_hour = 400});
  std::vector<flow::FlowRecord> records;
  synth.synthesize(
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 10),
                     net::Timestamp::from_date(net::Date(2020, 3, 25),
                                               10 + static_cast<int>(hours))},
      [&](const flow::FlowRecord& r) { records.push_back(r); });
  return records;
}

std::vector<std::vector<std::uint8_t>> encode_ipfix(
    std::span<const flow::FlowRecord> records) {
  flow::IpfixEncoder encoder(/*observation_domain=*/700);
  flow::PacketBatch packets;
  encoder.encode_batch(records, flow::batch_export_time(records), packets);
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto pkt = packets.packet(i);
    out.emplace_back(pkt.begin(), pkt.end());
  }
  return out;
}

const obs::HistogramSnapshot* find_histogram(const obs::RegistrySnapshot& snap,
                                             std::string_view name,
                                             std::string_view labels) {
  for (const auto& h : snap.histograms) {
    if (h.name == name && h.labels == labels) return &h;
  }
  return nullptr;
}

/// Observations above the 64 ms bound of a stage histogram (bounds
/// 0.25,1,4,16,64,256,...): where an induced 250 ms stall must land and a
/// healthy in-process pipeline must never reach.
std::uint64_t stalled_observations(const obs::RegistrySnapshot& snap,
                                   std::string_view stage_labels) {
  const auto* h =
      find_histogram(snap, "pipeline_stage_latency_ms", stage_labels);
  if (h == nullptr) return 0;
  return h->count - h->cumulative[4];  // everything past le=64
}

// ---------------------------------------------------------------------------
// PipelineWatermark
// ---------------------------------------------------------------------------

TEST(PipelineWatermark, ThreadLocalStampIsPerThread) {
  obs::set_arrival_ns(0);
  EXPECT_EQ(obs::arrival_ns(), 0u);
  obs::set_arrival_ns(42);
  EXPECT_EQ(obs::arrival_ns(), 42u);
  std::thread other([] {
    EXPECT_EQ(obs::arrival_ns(), 0u) << "stamp leaked across threads";
    obs::set_arrival_ns(7);
    EXPECT_EQ(obs::arrival_ns(), 7u);
  });
  other.join();
  EXPECT_EQ(obs::arrival_ns(), 42u);
  obs::set_arrival_ns(0);
}

TEST(PipelineWatermark, StageLatencyBucketsResolveAnInjectedStall) {
  const auto bounds = obs::StageLatency::bucket_bounds();
  ASSERT_EQ(bounds.size(), 8u);
  EXPECT_DOUBLE_EQ(bounds[0], 0.25);
  EXPECT_DOUBLE_EQ(bounds[4], 64.0);
  EXPECT_DOUBLE_EQ(bounds[5], 256.0);

  obs::Registry registry;
  obs::StageLatency stages = obs::StageLatency::bind(registry);
  ASSERT_NE(stages.decode, nullptr);

  // Unstamped batch and unbound stage are both no-ops.
  obs::StageLatency::observe_since(stages.decode, 0);
  obs::StageLatency::observe_since(nullptr, obs::trace_now_ns());
  EXPECT_EQ(stages.decode->count(), 0u);

  // A stamp 250 ms in the past lands in (64, 256]; a fresh stamp stays in
  // the lowest buckets.
  obs::StageLatency::observe_since(stages.decode,
                                   obs::trace_now_ns() - 250 * kMs);
  obs::StageLatency::observe_since(stages.decode, obs::trace_now_ns());
  const auto snap = registry.snapshot();
  EXPECT_EQ(stalled_observations(snap, "stage=\"decode\""), 1u);
  const auto* h =
      find_histogram(snap, "pipeline_stage_latency_ms", "stage=\"decode\"");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_GE(h->cumulative[4], 1u) << "fresh stamp must stay <= 64 ms";
}

TEST(PipelineWatermark, ReleasedWatermarkMonotoneAcrossLaneReorder) {
  // 4 lanes ingest interleaved slices of one corpus concurrently, each
  // datagram stamped with a deliberately scrambled (but valid) arrival
  // time, so tickets complete out of stamp order. The released watermark
  // is a running max over released tickets: it must never decrease, and
  // must end at the newest stamp any lane ingested.
  const auto records = synth_records(1);
  const auto corpus = encode_ipfix(records);
  ASSERT_GE(corpus.size(), 8u);

  constexpr std::size_t kLanes = 4;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 4,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 900,
       .wire_lanes = kLanes},
      [](flow::TraceSlice&&) {});

  const std::uint64_t base = obs::trace_now_ns();
  std::atomic<std::uint64_t> max_stamp{0};
  std::vector<std::thread> lanes;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (std::size_t i = lane; i < corpus.size(); i += kLanes) {
        // Scrambled offsets: lane 3 stamps "older" arrivals than lane 0
        // even though it ingests concurrently -- the reorder case.
        const std::uint64_t stamp = base - (lane * 40 + (i % 7)) * kMs;
        daemon.ingest_lane(lane, corpus[i], stamp);
        std::uint64_t seen = max_stamp.load(std::memory_order_relaxed);
        while (stamp > seen && !max_stamp.compare_exchange_weak(
                                   seen, stamp, std::memory_order_relaxed)) {
        }
      }
    });
  }

  std::atomic<bool> stop{false};
  std::uint64_t last = 0;
  bool monotone = true;
  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      daemon.poll();
      const std::uint64_t w = daemon.released_watermark_ns();
      if (w < last) monotone = false;
      last = w;
      std::this_thread::yield();
    }
  });

  for (auto& t : lanes) t.join();
  daemon.flush();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_TRUE(monotone) << "released watermark decreased";
  EXPECT_EQ(daemon.released_watermark_ns(), max_stamp.load())
      << "after flush the watermark is the newest ingested stamp";
}

// ---------------------------------------------------------------------------
// StreamWatermark
// ---------------------------------------------------------------------------

flow::FlowRecord plain_record(std::int64_t t) {
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(198, 18, 0, 1);
  r.dst_addr = net::Ipv4Address(198, 18, 0, 2);
  r.src_port = 51000;
  r.dst_port = 443;
  r.protocol = flow::IpProtocol::kTcp;
  r.bytes = 1000;
  r.packets = 10;
  r.first = net::Timestamp(t);
  r.last = net::Timestamp(t);
  return r;
}

TEST(StreamWatermark, AggregatorCarriesNewestArrivalStampIntoResult) {
  stream::WindowAggregator agg({.window_seconds = 60});
  const std::uint64_t older = obs::trace_now_ns() - 500 * kMs;
  const std::uint64_t newer = older + 100 * kMs;

  const std::vector<flow::FlowRecord> batch1{plain_record(30)};
  const std::vector<flow::FlowRecord> batch2{plain_record(31)};
  obs::set_arrival_ns(newer);
  agg.accumulate(batch1, {});
  obs::set_arrival_ns(older);  // older stamp merged second must not win
  agg.accumulate(batch2, {});
  obs::set_arrival_ns(0);
  agg.flush();

  std::vector<stream::WindowResult> results;
  agg.drain([&](stream::WindowResult&& r) { results.push_back(std::move(r)); });
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].arrival_watermark_ns, newer);
  EXPECT_EQ(results[0].total.flows, 2u);

  // Unstamped batches leave the watermark at 0 (pre-watermark callers).
  const std::vector<flow::FlowRecord> batch3{plain_record(120)};
  agg.accumulate(batch3, {});
  agg.flush();
  results.clear();
  agg.drain([&](stream::WindowResult&& r) { results.push_back(std::move(r)); });
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results.back().arrival_watermark_ns, 0u);
}

// The acceptance e2e: the full pipeline (IPFIX wire decode -> monitor
// routing -> stream windows) fed once with fresh stamps and once through a
// lane delayed by 250 ms. The delay must show up in the stage-latency
// histograms' (64, 256] bucket and in stream_watermark_lag_ms -- and only
// the delayed run may move them.
TEST(StreamWatermark, DelayedLaneMovesLatencyAndWatermarkSeries) {
  const auto records = synth_records(1);
  const auto corpus = encode_ipfix(records);
  ASSERT_GE(corpus.size(), 2u);

  const auto run = [&](std::uint64_t delay_ns) {
    obs::Registry registry;
    filter::MonitorSet monitors;
    monitors.add("all", "bytes >= 0");  // catch-all: every record routes
    stream::StreamMonitor streamer(monitors,
                                   {.window = {.window_seconds = 3600}});
    streamer.bind_metrics(registry);
    runtime::ShardedCollectorDaemon daemon(
        {.protocol = flow::ExportProtocol::kIpfix,
         .shards = 1,
         .ring_capacity = corpus.size() + 1,
         .rotation_seconds = net::kSecondsPerDay,
         .metrics = &registry,
         .batch_observer = monitors.batch_sink()},
        [](flow::TraceSlice&&) {});
    for (const auto& datagram : corpus) {
      const std::uint64_t arrival =
          delay_ns == 0 ? 0 : obs::trace_now_ns() - delay_ns;
      (void)daemon.ingest_lane(0, datagram, arrival);
    }
    daemon.flush();
    streamer.flush();
    (void)streamer.poll();
    struct Outcome {
      std::uint64_t stalled_decode, stalled_route, stalled_spool;
      std::uint64_t decode_count;
      double stream_lag_ms;
    } out{};
    const auto snap = registry.snapshot();
    out.stalled_decode = stalled_observations(snap, "stage=\"decode\"");
    out.stalled_route = stalled_observations(snap, "stage=\"route\"");
    out.stalled_spool = stalled_observations(snap, "stage=\"spool\"");
    const auto* decode =
        find_histogram(snap, "pipeline_stage_latency_ms", "stage=\"decode\"");
    out.decode_count = decode != nullptr ? decode->count : 0;
    for (const auto& g : snap.gauges) {
      if (g.name == "stream_watermark_lag_ms" && g.labels == "object=\"all\"") {
        out.stream_lag_ms = g.value;
      }
    }
    return out;
  };

  const auto fresh = run(0);
  EXPECT_GT(fresh.decode_count, 0u) << "pipeline observed no batches";
  EXPECT_EQ(fresh.stalled_decode, 0u)
      << "an undelayed lane must not reach the 250 ms bucket";
  EXPECT_EQ(fresh.stalled_route, 0u);
  EXPECT_EQ(fresh.stalled_spool, 0u);
  EXPECT_LT(fresh.stream_lag_ms, 250.0);

  const auto delayed = run(250 * kMs);
  EXPECT_GT(delayed.stalled_decode, 0u)
      << "250 ms injected delay missing from decode-stage p99 bucket";
  EXPECT_GT(delayed.stalled_route, 0u);
  EXPECT_GT(delayed.stalled_spool, 0u);
  EXPECT_GE(delayed.stream_lag_ms, 250.0)
      << "stream_watermark_lag_ms must reflect the injected delay";
}

}  // namespace
