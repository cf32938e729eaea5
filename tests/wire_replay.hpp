// The collector's determinism oracle: datagrams replayed in wire (arrival
// ticket) order through one flow::Collector into one flow::SliceSpooler.
// runtime::ShardedCollectorDaemon must reproduce its slices byte for byte
// for every lane and shard count (the contract in runtime/sharded_daemon.hpp),
// so the determinism suites compare against this.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "flow/collector_daemon.hpp"
#include "flow/pipeline.hpp"

namespace lockdown::test {

struct WireReplay {
  std::vector<flow::TraceSlice> slices;
  std::size_t records_spooled = 0;
  flow::CollectorStats stats;
};

/// Decode `datagrams` in order, hand every batch to `observer` (when set)
/// and then to a SliceSpooler rotating every `rotation_s` seconds.
inline WireReplay replay_in_wire_order(
    flow::ExportProtocol protocol, std::int64_t rotation_s,
    std::span<const std::vector<std::uint8_t>> datagrams,
    const flow::Collector::BatchSink& observer = {}) {
  WireReplay out;
  flow::SliceSpooler spooler(rotation_s, [&](flow::TraceSlice&& s) {
    out.slices.push_back(std::move(s));
  });
  flow::Collector collector(
      protocol,
      flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> batch) {
        if (observer) observer(batch);
        for (const flow::FlowRecord& r : batch) spooler.append(r);
      }));
  for (const auto& datagram : datagrams) collector.ingest(datagram);
  spooler.flush();
  out.records_spooled = spooler.records_spooled();
  out.stats = collector.stats();
  return out;
}

inline void expect_identical_slices(const std::vector<flow::TraceSlice>& got,
                                    const std::vector<flow::TraceSlice>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].begin, want[i].begin) << "slice " << i;
    EXPECT_EQ(got[i].records, want[i].records) << "slice " << i;
    EXPECT_EQ(got[i].image, want[i].image) << "slice " << i;
  }
}

}  // namespace lockdown::test
