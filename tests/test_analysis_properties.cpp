// Property tests on the analysis layer: scale invariance of every
// normalized output, idempotence/monotonicity of the aggregations, and
// randomized-record codec round trips.
#include <gtest/gtest.h>

#include "analysis/app_filter.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/ports.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "flow/pipeline.hpp"
#include "synth/as_registry.hpp"
#include "util/rng.hpp"

namespace lockdown::analysis {
namespace {

using flow::FlowRecord;
using flow::IpProtocol;
using flow::PortKey;
using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

class AnalysisProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  AnalysisProperty() : rng_(GetParam()) {}

  FlowRecord random_record(TimeRange within) {
    FlowRecord r;
    r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng_.engine()()));
    r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng_.engine()()));
    r.src_port = static_cast<std::uint16_t>(rng_.uniform_u64(65536));
    r.dst_port = static_cast<std::uint16_t>(rng_.uniform_u64(65536));
    r.protocol = rng_.bernoulli(0.7) ? IpProtocol::kTcp : IpProtocol::kUdp;
    r.tcp_flags = static_cast<std::uint8_t>(rng_.uniform_u64(256));
    r.bytes = 40 + rng_.uniform_u64(1'000'000);
    r.packets = 1 + r.bytes / 1000;
    const auto span = static_cast<std::uint64_t>(within.duration_seconds());
    r.first = within.begin.plus(static_cast<std::int64_t>(rng_.uniform_u64(span)));
    r.last = r.first.plus(static_cast<std::int64_t>(rng_.uniform_u64(120)));
    r.src_as = Asn(static_cast<std::uint32_t>(rng_.uniform_u64(70000)));
    r.dst_as = Asn(static_cast<std::uint32_t>(rng_.uniform_u64(70000)));
    r.input_if = static_cast<std::uint16_t>(rng_.uniform_u64(8));
    r.output_if = static_cast<std::uint16_t>(rng_.uniform_u64(8));
    return r;
  }

  util::Rng rng_;
};

TEST_P(AnalysisProperty, RandomRecordsSurviveEveryWireFormat) {
  const TimeRange day = TimeRange::day_of(Date(2020, 3, 25));
  std::vector<FlowRecord> records;
  for (int i = 0; i < 300; ++i) records.push_back(random_record(day));

  for (const auto protocol :
       {flow::ExportProtocol::kNetflowV5, flow::ExportProtocol::kNetflowV9,
        flow::ExportProtocol::kIpfix}) {
    auto batch = records;
    if (protocol == flow::ExportProtocol::kNetflowV5) {
      // v5 carries 16-bit AS numbers and 32-bit counters; clamp inputs to
      // the representable range for an exact-equality round trip.
      for (auto& r : batch) {
        r.src_as = Asn(r.src_as.value() & 0xffff);
        r.dst_as = Asn(r.dst_as.value() & 0xffff);
      }
    }
    flow::CollectorStats stats;
    const auto decoded = flow::export_and_collect(
        protocol, batch, flow::batch_export_time(batch), nullptr, &stats);
    ASSERT_EQ(decoded.size(), batch.size()) << to_string(protocol);
    EXPECT_EQ(stats.malformed_packets, 0u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded[i].src_addr, batch[i].src_addr);
      EXPECT_EQ(decoded[i].dst_addr, batch[i].dst_addr);
      EXPECT_EQ(decoded[i].src_port, batch[i].src_port);
      EXPECT_EQ(decoded[i].dst_port, batch[i].dst_port);
      EXPECT_EQ(decoded[i].bytes, batch[i].bytes);
      EXPECT_EQ(decoded[i].packets, batch[i].packets);
      EXPECT_EQ(decoded[i].first.seconds(), batch[i].first.seconds());
      EXPECT_EQ(decoded[i].src_as, batch[i].src_as);
    }
  }
}

TEST_P(AnalysisProperty, WeeklyNormalizationIsScaleInvariant) {
  const TimeRange window{Timestamp::from_date(Date(2020, 1, 8)),
                         Timestamp::from_date(Date(2020, 2, 19))};
  VolumeAggregator a(stats::Bucket::kDay);
  VolumeAggregator b(stats::Bucket::kDay);
  for (int i = 0; i < 2000; ++i) {
    auto r = random_record(window);
    add_record(a, r);
    r.bytes *= 1000;
    add_record(b, r);
  }
  const auto wa = weekly_normalized(a.series(), 3);
  const auto wb = weekly_normalized(b.series(), 3);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].first, wb[i].first);
    EXPECT_NEAR(wa[i].second, wb[i].second, 1e-9);
  }
  // The baseline week itself normalizes to exactly 1.
  for (const auto& [week, value] : wa) {
    if (week == 3) EXPECT_NEAR(value, 1.0, 1e-12);
  }
}

TEST_P(AnalysisProperty, HeatmapDiffIsScaleInvariantAndBounded) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const auto classifier = AppClassifier::table1();
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  ClassHeatmap h1(classifier, view, weeks);
  ClassHeatmap h2(classifier, view, weeks);

  for (int i = 0; i < 3000; ++i) {
    auto r = random_record(weeks[rng_.uniform_u64(2)]);
    // Give it a classifiable identity (email port) half the time.
    if (rng_.bernoulli(0.5)) {
      r.protocol = IpProtocol::kTcp;
      r.dst_port = 993;
      r.src_port = 50000;
    }
    add_record(h1, r, &reg.trie());
    r.bytes *= 77;
    add_record(h2, r, &reg.trie());
  }
  for (const auto cls : h1.observed_classes()) {
    const auto d1 = h1.diff_percent(cls, 1);
    const auto d2 = h2.diff_percent(cls, 1);
    for (std::size_t slot = 0; slot < d1.size(); ++slot) {
      EXPECT_NEAR(d1[slot], d2[slot], 1e-6);
      if (d1[slot] != ClassHeatmap::kMaskedHour) {
        EXPECT_GE(d1[slot], -100.0);
        EXPECT_LE(d1[slot], 200.0);
      }
    }
  }
}

TEST_P(AnalysisProperty, PortProfilesPeakAtExactlyOne) {
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  PortAnalyzer pa(weeks);
  for (int i = 0; i < 4000; ++i) {
    add_record(pa, random_record(weeks[rng_.uniform_u64(2)]));
  }

  const auto top = pa.top_ports(6);
  const auto profiles = pa.profiles(top);
  for (const auto& port : top) {
    double max_seen = 0.0;
    for (const auto& p : profiles) {
      if (!(p.port == port)) continue;
      for (unsigned h = 0; h < 24; ++h) {
        max_seen = std::max({max_seen, p.workday[h], p.weekend[h]});
        EXPECT_GE(p.workday[h], 0.0);
        EXPECT_LE(p.workday[h], 1.0 + 1e-12);
      }
    }
    EXPECT_NEAR(max_seen, 1.0, 1e-9) << port.to_string();
  }
}

TEST_P(AnalysisProperty, HypergiantShareIsAProbability) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  HypergiantAnalyzer analyzer(view, AsnSet(synth::AsRegistry::hypergiant_asns()));
  const TimeRange day = TimeRange::day_of(Date(2020, 1, 15));
  for (int i = 0; i < 2000; ++i) add_record(analyzer, random_record(day), &reg.trie());
  EXPECT_GE(analyzer.hypergiant_share(), 0.0);
  EXPECT_LE(analyzer.hypergiant_share(), 1.0);
  // Per-AS attribution is consistent with the aggregate share: positive
  // exactly when the share is (random ASNs rarely hit the 15 hypergiants).
  double per_hg = 0.0;
  for (const auto& [asn, bytes] : analyzer.per_hypergiant_bytes()) per_hg += bytes;
  EXPECT_EQ(per_hg > 0.0, analyzer.hypergiant_share() > 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace lockdown::analysis
