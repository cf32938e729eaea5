// Tests of the sharded ingestion runtime (src/runtime/): ring semantics,
// source-keyed routing, the determinism contract against the
// single-threaded Collector, explicit backpressure, and the sharded
// daemon front-end. These suites are the ones the ThreadSanitizer CI job
// gates.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <tuple>
#include <vector>

#include "flow/anonymizer.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/pipeline.hpp"
#include "runtime/sharded_collector.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/spsc_ring.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "wire_replay.hpp"

namespace {

using namespace lockdown;
using test::expect_identical_slices;
using test::replay_in_wire_order;

// ---------------------------------------------------------------------------
// SpscRing

TEST(SpscRing, FifoOrderAndWrapAround) {
  runtime::SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  // Push/pop repeatedly past the capacity so indices wrap several times.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(int(next_in++)));
    for (int i = 0; i < 3; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
  }
  EXPECT_EQ(ring.try_pop(), std::nullopt);
}

TEST(SpscRing, BackpressureWhenFullLeavesValueIntact) {
  runtime::SpscRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.try_push({1}));
  ASSERT_TRUE(ring.try_push({2}));
  std::vector<int> overflow{3, 4, 5};
  EXPECT_FALSE(ring.try_push(std::move(overflow)));
  // A failed push must not consume the value: the caller may retry.
  EXPECT_EQ(overflow.size(), 3u);
  ASSERT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(std::move(overflow)));
}

TEST(SpscRing, CrossThreadTransferDeliversEverythingInOrder) {
  runtime::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kCount = 20000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (ring.try_push(std::uint64_t(i))) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(ring.try_pop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// Shared fixtures: a multi-source IPFIX corpus.

std::vector<flow::FlowRecord> synthesize_records(std::size_t hours) {
  const auto registry = synth::AsRegistry::create_default();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                       {.seed = 7});
  const synth::FlowSynthesizer synth(vp.model, registry,
                                     {.connections_per_hour = 600});
  std::vector<flow::FlowRecord> records;
  synth.synthesize(
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 10),
                     net::Timestamp::from_date(net::Date(2020, 3, 25),
                                               10 + static_cast<int>(hours))},
      [&](const flow::FlowRecord& r) { records.push_back(r); });
  return records;
}

/// Encode `records` as IPFIX from `sources` distinct observation domains
/// and interleave the sources' datagrams round-robin, as a collector port
/// shared by many exporters would see them.
std::vector<std::vector<std::uint8_t>> multi_source_corpus(
    std::span<const flow::FlowRecord> records, std::size_t sources) {
  std::vector<std::vector<std::vector<std::uint8_t>>> per_source(sources);
  const std::size_t chunk = (records.size() + sources - 1) / sources;
  for (std::size_t s = 0; s < sources; ++s) {
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(records.size(), begin + chunk);
    if (begin >= end) continue;
    flow::IpfixEncoder encoder(/*observation_domain=*/100 + s);
    auto slice = records.subspan(begin, end - begin);
    per_source[s] = encoder.encode(slice, flow::batch_export_time(slice));
  }
  std::vector<std::vector<std::uint8_t>> interleaved;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& source : per_source) {
      if (i < source.size()) {
        interleaved.push_back(std::move(source[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return interleaved;
}

/// Order records canonically so multiset equality is a vector compare.
void sort_records(std::vector<flow::FlowRecord>& records) {
  auto key = [](const flow::FlowRecord& r) {
    return std::tie(r.src_addr, r.dst_addr, r.src_port, r.dst_port, r.protocol,
                    r.tcp_flags, r.bytes, r.packets, r.first, r.last,
                    r.input_if, r.output_if, r.src_as, r.dst_as);
  };
  std::sort(records.begin(), records.end(),
            [&](const flow::FlowRecord& a, const flow::FlowRecord& b) {
              return key(a) < key(b);
            });
}

// ---------------------------------------------------------------------------
// Export-source peeking & routing

TEST(ExportSourceKey, DistinguishesSourcesAndVersions) {
  const auto records = synthesize_records(1);
  ASSERT_FALSE(records.empty());
  std::span<const flow::FlowRecord> span(records.data(),
                                         std::min<std::size_t>(records.size(), 8));

  flow::IpfixEncoder ipfix_a(1), ipfix_b(2);
  const auto a = ipfix_a.encode(span, flow::batch_export_time(span));
  const auto b = ipfix_b.encode(span, flow::batch_export_time(span));
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(runtime::export_source_key(a[0]), runtime::export_source_key(b[0]));
  EXPECT_EQ(runtime::export_source_key(a[0]), runtime::export_source_key(a.back()));

  // v9 is IPv4-only in this repo; pick v4 records for the version check.
  std::vector<flow::FlowRecord> v4;
  for (const auto& r : records) {
    if (!r.src_addr.is_v6() && !r.dst_addr.is_v6()) v4.push_back(r);
    if (v4.size() == 4) break;
  }
  ASSERT_FALSE(v4.empty());
  flow::NetflowV9Encoder v9(/*source_id=*/1);
  const auto c = v9.encode(v4, flow::batch_export_time(v4));
  ASSERT_FALSE(c.empty());
  // Same numeric source id, different protocol version: still distinct.
  EXPECT_NE(runtime::export_source_key(a[0]), runtime::export_source_key(c[0]));

  const std::vector<std::uint8_t> runt{0x00};
  EXPECT_EQ(runtime::export_source_key(runt), 0u);
}

TEST(ShardedCollector, RoutingIsStablePerSource) {
  const auto records = synthesize_records(1);
  const auto corpus = multi_source_corpus(records, 6);
  runtime::ShardedCollectorConfig config;
  config.shards = 4;
  runtime::ShardedCollector engine(config);
  std::map<std::uint64_t, std::size_t> source_to_shard;
  for (const auto& datagram : corpus) {
    const auto key = runtime::export_source_key(datagram);
    const auto shard = engine.shard_of(datagram);
    const auto [it, inserted] = source_to_shard.emplace(key, shard);
    EXPECT_EQ(it->second, shard) << "source moved between shards";
  }
  engine.finish();
  EXPECT_GE(source_to_shard.size(), 6u);
}

// ---------------------------------------------------------------------------
// Determinism: sharded == single-threaded, any shard count.

TEST(ShardedCollector, MatchesSingleThreadedCollectorExactly) {
  const auto records = synthesize_records(2);
  ASSERT_GT(records.size(), 500u);
  auto corpus = multi_source_corpus(records, 8);
  // A few malformed datagrams mixed in: truncated header and garbage body.
  corpus.push_back({0x00, 0x0a, 0x00});
  corpus.push_back(std::vector<std::uint8_t>(64, 0xff));

  const flow::Anonymizer anonymizer({0xfeedULL, 0xbeefULL},
                                    flow::AnonymizationMode::kPrefixPreserving);

  std::vector<flow::FlowRecord> reference;
  flow::Collector single(
      flow::ExportProtocol::kIpfix,
      [&](const flow::FlowRecord& r) { reference.push_back(r); }, &anonymizer);
  for (const auto& datagram : corpus) single.ingest(datagram);
  sort_records(reference);
  ASSERT_EQ(reference.size(), records.size());

  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    runtime::ShardedCollectorConfig config;
    config.shards = shards;
    config.ring_capacity = corpus.size() + 1;  // no drops: exact comparison
    config.anonymizer = &anonymizer;
    runtime::ShardedCollector engine(config);
    for (const auto& datagram : corpus) EXPECT_TRUE(engine.ingest(datagram));
    engine.finish();

    EXPECT_EQ(engine.merged_stats(), single.stats()) << "shards=" << shards;
    EXPECT_EQ(engine.dropped(), 0u);
    auto merged = engine.take_merged_records();
    sort_records(merged);
    EXPECT_EQ(merged, reference) << "shards=" << shards;
  }
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(ShardedCollector, FullRingCountsDropsAndNeverBlocks) {
  const auto records = synthesize_records(1);
  auto corpus = multi_source_corpus(records, 1);
  ASSERT_GT(corpus.size(), 8u);

  runtime::ShardedCollectorConfig config;
  config.shards = 1;
  config.ring_capacity = 2;
  // A slow consumer: every decoded batch stalls the worker, so the wire
  // thread runs far ahead of the ring.
  runtime::ShardedCollector engine(
      config, [](std::size_t, std::span<const flow::FlowRecord>) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  std::uint64_t accepted = 0;
  for (const auto& datagram : corpus) {
    if (engine.ingest(datagram)) ++accepted;
  }
  engine.finish();
  const auto snapshot = engine.engine_snapshot();
  EXPECT_GT(snapshot.dropped, 0u);
  EXPECT_EQ(snapshot.dropped + accepted, corpus.size());
  EXPECT_EQ(snapshot.wire_datagrams, corpus.size());
  // Only accepted datagrams were decoded.
  EXPECT_EQ(engine.merged_stats().packets, accepted);
  EXPECT_GT(snapshot.queue_high_water, 0u);
}

TEST(ShardedCollector, IngestWaitIsLossless) {
  const auto records = synthesize_records(1);
  auto corpus = multi_source_corpus(records, 2);
  runtime::ShardedCollectorConfig config;
  config.shards = 2;
  config.ring_capacity = 2;
  runtime::ShardedCollector engine(
      config, [](std::size_t, std::span<const flow::FlowRecord>) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
  for (const auto& datagram : corpus) engine.ingest_wait(datagram);
  engine.finish();
  EXPECT_EQ(engine.dropped(), 0u);
  EXPECT_EQ(engine.merged_stats().packets, corpus.size());
}

// ---------------------------------------------------------------------------
// EngineStats

TEST(EngineStats, SnapshotAggregatesAcrossShards) {
  runtime::EngineStats stats(3);
  stats.shard(0).records.fetch_add(5);
  stats.shard(1).records.fetch_add(7);
  stats.shard(2).dropped.fetch_add(2);
  stats.note_queue_depth(1, 9);
  stats.note_queue_depth(1, 4);  // lower depth must not regress the mark
  stats.note_wire_datagram();
  const auto s = stats.snapshot();
  EXPECT_EQ(s.records, 12u);
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.queue_high_water, 9u);
  EXPECT_EQ(s.wire_datagrams, 1u);
  ASSERT_EQ(s.shards.size(), 3u);
  EXPECT_EQ(s.shards[1].queue_high_water, 9u);
}

// ---------------------------------------------------------------------------
// Batch sink equivalence (the Collector hot-path satellite)

TEST(CollectorBatchSink, BatchAndPerRecordSinksAgree) {
  const auto records = synthesize_records(1);
  auto corpus = multi_source_corpus(records, 3);

  std::vector<flow::FlowRecord> per_record;
  flow::Collector a(flow::ExportProtocol::kIpfix,
                    [&](const flow::FlowRecord& r) { per_record.push_back(r); });
  std::vector<flow::FlowRecord> batched;
  std::size_t batch_calls = 0;
  flow::Collector b(flow::ExportProtocol::kIpfix,
                    flow::Collector::BatchSink(
                        [&](std::span<const flow::FlowRecord> batch) {
                          ++batch_calls;
                          batched.insert(batched.end(), batch.begin(), batch.end());
                        }));
  for (const auto& datagram : corpus) {
    a.ingest(datagram);
    b.ingest(datagram);
  }
  EXPECT_EQ(per_record, batched);
  EXPECT_EQ(a.stats(), b.stats());
  // One type-erased call per datagram, not per record.
  EXPECT_LE(batch_calls, corpus.size());
  EXPECT_LT(batch_calls, batched.size());
}

// ---------------------------------------------------------------------------
// Sharded daemon front-end

TEST(ShardedDaemon, MatchesSingleThreadedDaemonOnSingleSourceStream) {
  const auto records = synthesize_records(2);
  // One export source: order is fully preserved through one shard, so the
  // sharded daemon must produce byte-identical slices.
  flow::IpfixEncoder encoder(/*observation_domain=*/42);
  std::span<const flow::FlowRecord> span(records);
  const auto corpus = encoder.encode(span, flow::batch_export_time(span));

  const auto reference =
      replay_in_wire_order(flow::ExportProtocol::kIpfix, 900, corpus);

  std::vector<flow::TraceSlice> sharded_slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 4,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 900},
      [&](flow::TraceSlice&& s) { sharded_slices.push_back(std::move(s)); });
  for (const auto& datagram : corpus) daemon.ingest(datagram);
  daemon.flush();

  EXPECT_EQ(daemon.records_spooled(), reference.records_spooled);
  EXPECT_EQ(daemon.slices_emitted(), reference.slices.size());
  expect_identical_slices(sharded_slices, reference.slices);
  EXPECT_EQ(daemon.wire_stats().records, records.size());
  EXPECT_EQ(daemon.engine_snapshot().dropped, 0u);
}

TEST(ShardedDaemon, MultiSourceStreamSpoolsEveryRecord) {
  const auto records = synthesize_records(1);
  const auto corpus = multi_source_corpus(records, 5);
  std::size_t slice_records = 0;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 3,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 300},
      [&](flow::TraceSlice&& s) { slice_records += s.records; });
  for (const auto& datagram : corpus) daemon.ingest(datagram);
  daemon.flush();
  EXPECT_EQ(daemon.records_spooled(), records.size());
  EXPECT_EQ(slice_records, records.size());
  EXPECT_EQ(daemon.engine_snapshot().dropped, 0u);
}

// The wire-order merge contract: even when sources interleave across
// shards, poll() releases per-datagram batches in the order the wire
// thread accepted them, so the sharded daemon's slices are byte-identical
// to a single-threaded wire-order replay's -- not just the same multiset.
TEST(ShardedDaemon, MatchesSingleThreadedDaemonOnMultiSourceStream) {
  const auto records = synthesize_records(2);
  const auto corpus = multi_source_corpus(records, 7);

  const auto reference =
      replay_in_wire_order(flow::ExportProtocol::kIpfix, 900, corpus);

  std::vector<flow::TraceSlice> sharded_slices;
  runtime::ShardedCollectorDaemon daemon(
      {.protocol = flow::ExportProtocol::kIpfix,
       .shards = 4,
       .ring_capacity = corpus.size() + 1,
       .rotation_seconds = 900},
      [&](flow::TraceSlice&& s) { sharded_slices.push_back(std::move(s)); });
  for (const auto& datagram : corpus) daemon.ingest(datagram);
  daemon.flush();

  EXPECT_EQ(daemon.records_spooled(), reference.records_spooled);
  expect_identical_slices(sharded_slices, reference.slices);
  EXPECT_EQ(daemon.engine_snapshot().dropped, 0u);
}

}  // namespace
