// App classification through the fused filter plan (DESIGN.md section 9):
// differential fuzz of the batch entry against the interpreted registry
// scan (oracle::classify_reference, tests/oracle/) across batch sizes and
// mask words, registry validation, and the ClassHeatmap week binary search.
#include <gtest/gtest.h>

#include <random>

#include "analysis/app_filter.hpp"
#include "analysis/scan.hpp"
#include "filter/plan.hpp"
#include "oracle/classify_oracle.hpp"
#include "synth/as_registry.hpp"

namespace lockdown::analysis {
namespace {

using flow::IpProtocol;
using flow::PortKey;
using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

class FlatClassifierTest : public ::testing::Test {
 protected:
  FlatClassifierTest()
      : reg_(synth::AsRegistry::create_default()), view_(reg_.trie()),
        classifier_(AppClassifier::table1()) {}

  synth::AsRegistry reg_;
  AsView view_;
  AppClassifier classifier_;
};

/// Randomized flows biased toward the registry's criteria so the fuzz
/// exercises matches (port hits, AS hits, combined filters, first-match
/// ties), not just the all-miss fast path.
std::vector<flow::FlowRecord> fuzz_flows(const AppClassifier& classifier,
                                         std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);

  std::vector<std::uint32_t> asns = {0, 1, 64700};
  std::vector<std::uint16_t> tcp_ports = {80, 443};
  std::vector<std::uint16_t> udp_ports = {53};
  for (const AppFilter& f : classifier.filters()) {
    for (const Asn a : f.asns) asns.push_back(a.value());
    for (const PortKey p : f.ports) {
      (p.proto == IpProtocol::kTcp ? tcp_ports : udp_ports).push_back(p.port);
    }
  }

  constexpr IpProtocol kProtocols[] = {IpProtocol::kTcp, IpProtocol::kUdp,
                                       IpProtocol::kIcmp, IpProtocol::kGre,
                                       IpProtocol::kEsp};
  std::vector<flow::FlowRecord> out(n);
  for (flow::FlowRecord& r : out) {
    r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    // 70% TCP/UDP, the rest port-less protocols.
    r.protocol = kProtocols[rng() % 10 < 7 ? rng() % 2 : 2 + rng() % 3];
    const auto& ports =
        r.protocol == IpProtocol::kUdp ? udp_ports : tcp_ports;
    // Half the flows aim at a registry port; the other half are random.
    r.dst_port = (rng() & 1) ? ports[rng() % ports.size()]
                             : static_cast<std::uint16_t>(rng());
    r.src_port = (rng() % 4 == 0) ? ports[rng() % ports.size()]
                                  : static_cast<std::uint16_t>(50000 + rng() % 10000);
    // Half carry a registry ASN on one side; a sixth are Asn(0) (unknown,
    // forcing the prefix-trie fallback in AsView).
    const auto pick_as = [&]() {
      const auto roll = rng() % 6;
      if (roll < 3) return Asn(asns[rng() % asns.size()]);
      if (roll == 3) return Asn(0);
      return Asn(static_cast<std::uint32_t>(rng() % 100000));
    };
    r.src_as = pick_as();
    r.dst_as = pick_as();
    r.bytes = rng() % 100000;
    r.packets = 1 + rng() % 100;
    r.first = Timestamp::from_date(Date(2020, 3, 19))
                  .plus(static_cast<std::int64_t>(rng() % (7 * 86400)));
    r.last = r.first.plus(static_cast<std::int64_t>(rng() % 600));
  }
  return out;
}

/// Classifies `flows` through the batch entry in consecutive batches whose
/// sizes cycle through `sizes` (each batch with its own FlowColumns, as a
/// scan lane builds them) and counts disagreements with the oracle.
std::size_t batch_mismatches(const AppClassifier& c, const AsView& view,
                             const synth::AsRegistry& reg,
                             const std::vector<flow::FlowRecord>& flows,
                             std::span<const std::size_t> sizes) {
  filter::FlowColumns cols;
  std::vector<std::optional<AppClass>> out;
  std::size_t mismatches = 0;
  std::size_t k = 0;
  for (std::size_t base = 0; base < flows.size(); ++k) {
    const std::size_t n = std::min(sizes[k % sizes.size()], flows.size() - base);
    const auto batch = std::span<const flow::FlowRecord>(flows).subspan(base, n);
    cols.build(batch, &reg.trie());
    out.assign(n, AppClass::kOther);  // stale values must be overwritten
    c.classify(batch, cols, out);
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] != oracle::classify_reference(c, batch[i], view)) ++mismatches;
    }
    base += n;
  }
  return mismatches;
}

/// Around the plan's 64-record words and 512-record chunks, and a whole
/// scan chunk.
constexpr std::size_t kBatchSizes[] = {1, 63, 64, 65, 511, 512, 513, 4096};

TEST_F(FlatClassifierTest, DifferentialFuzzMillionFlows) {
  const auto flows = fuzz_flows(classifier_, 1'000'000, 20200319);
  ASSERT_EQ(batch_mismatches(classifier_, view_, reg_, flows, kBatchSizes), 0u);
  std::size_t classified = 0;
  for (const auto& r : flows) {
    classified += oracle::classify_reference(classifier_, r, view_).has_value();
  }
  // The bias in fuzz_flows must actually produce matches, or this test
  // only ever exercises the all-miss path.
  EXPECT_GT(classified, flows.size() / 10);
  EXPECT_LT(classified, flows.size());
}

TEST_F(FlatClassifierTest, NonContiguousRegistryCrossesMaskWords) {
  // 150 filters whose class changes at every step: 150 plan outputs in
  // three mask words, so first-match must scan past the first word. Small
  // shared ASN and port pools make filters overlap, so priority decides
  // most matches.
  constexpr AppClass kClasses[] = {AppClass::kWebConf, AppClass::kGaming,
                                   AppClass::kVod, AppClass::kCdn};
  std::mt19937_64 rng(64);
  const auto pick_asns = [&] {
    std::vector<Asn> v;
    for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
      v.emplace_back(static_cast<std::uint32_t>(64500 + rng() % 40));
    }
    return v;
  };
  const auto pick_ports = [&] {
    std::vector<PortKey> v;
    for (std::size_t i = 0, n = 1 + rng() % 3; i < n; ++i) {
      const auto roll = rng() % 8;
      v.push_back(roll == 0   ? PortKey{IpProtocol::kGre, 0}
                  : roll == 1 ? PortKey{IpProtocol::kEsp, 0}
                  : PortKey{roll < 5 ? IpProtocol::kTcp : IpProtocol::kUdp,
                            static_cast<std::uint16_t>(7000 + rng() % 60)});
    }
    return v;
  };
  std::vector<AppFilter> filters;
  for (std::size_t i = 0; i < 150; ++i) {
    AppFilter f{"f" + std::to_string(i), kClasses[i % 4], {}, {}};
    const auto shape = rng() % 3;
    if (shape != 1) f.asns = pick_asns();
    if (shape != 0) f.ports = pick_ports();
    filters.push_back(std::move(f));
  }
  const AppClassifier c(filters);
  ASSERT_EQ(c.runs().size(), 150u);
  const AppClassifier first_word(
      std::vector<AppFilter>(filters.begin(), filters.begin() + 64));

  const auto flows = fuzz_flows(c, 200'000, 65);
  ASSERT_EQ(batch_mismatches(c, view_, reg_, flows, kBatchSizes), 0u);
  // Some records' first match must lie past output 63.
  std::size_t past_first_word = 0;
  for (const auto& r : flows) {
    past_first_word += oracle::classify_reference(c, r, view_).has_value() &&
                       !oracle::classify_reference(first_word, r, view_);
  }
  EXPECT_GT(past_first_word, 100u);
}

TEST_F(FlatClassifierTest, FirstMatchPriorityOnSharedPort) {
  // udp/3480 appears in the combined Teams filter (AS 8075) and in the
  // port-only stun-3480 filter right after it. With the AS present the
  // combined filter (lower index) must win; its class is the same, so
  // instead pin priority via a custom registry where the classes differ.
  std::vector<AppFilter> filters;
  filters.push_back({"combined", AppClass::kWebConf, {Asn(8075)},
                     {PortKey{IpProtocol::kUdp, 3480}}});
  filters.push_back({"port-only", AppClass::kGaming, {},
                     {PortKey{IpProtocol::kUdp, 3480}}});
  const AppClassifier c(std::move(filters));

  flow::FlowRecord r;
  r.protocol = IpProtocol::kUdp;
  r.dst_port = 3480;
  r.src_as = Asn(8075);
  r.dst_as = Asn(1);
  EXPECT_EQ(c.classify(r, view_), AppClass::kWebConf);
  EXPECT_EQ(c.classify(r, view_), oracle::classify_reference(c, r, view_));

  r.src_as = Asn(1);  // AS criterion fails -> the port-only filter wins
  EXPECT_EQ(c.classify(r, view_), AppClass::kGaming);
  EXPECT_EQ(c.classify(r, view_), oracle::classify_reference(c, r, view_));
}

TEST_F(FlatClassifierTest, PortlessProtocolFiltersUseTheFallbackScan) {
  // GRE/ESP/ICMP carry service port 0; filters naming such PortKeys lower
  // to `proto P and port 0` and must match with first-match priority
  // intact.
  std::vector<AppFilter> filters;
  filters.push_back({"tcp-443", AppClass::kCdn, {}, {PortKey{IpProtocol::kTcp, 443}}});
  filters.push_back({"gre", AppClass::kVod, {}, {PortKey{IpProtocol::kGre, 0}}});
  filters.push_back({"esp-late", AppClass::kEmail, {}, {PortKey{IpProtocol::kEsp, 0}}});
  const AppClassifier c(std::move(filters));

  flow::FlowRecord r;
  r.protocol = IpProtocol::kGre;
  EXPECT_EQ(c.classify(r, view_), AppClass::kVod);
  EXPECT_EQ(c.classify(r, view_), oracle::classify_reference(c, r, view_));
  r.protocol = IpProtocol::kEsp;
  EXPECT_EQ(c.classify(r, view_), AppClass::kEmail);
  r.protocol = IpProtocol::kIcmp;
  EXPECT_EQ(c.classify(r, view_), std::nullopt);
}

TEST_F(FlatClassifierTest, RejectsDuplicateFilterNames) {
  std::vector<AppFilter> filters;
  filters.push_back({"dup", AppClass::kCdn, {Asn(1)}, {}});
  filters.push_back({"dup", AppClass::kVod, {Asn(2)}, {}});
  EXPECT_THROW(AppClassifier(std::move(filters)), std::invalid_argument);
}

TEST_F(FlatClassifierTest, RejectsUnconstrainedFilters) {
  std::vector<AppFilter> filters;
  filters.push_back({"empty", AppClass::kCdn, {}, {}});
  EXPECT_THROW(AppClassifier(std::move(filters)), std::invalid_argument);
}

// --- ClassHeatmap week lookup + batching -------------------------------------

flow::FlowRecord email_flow(Timestamp t, std::uint64_t bytes) {
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(198, 18, 0, 1);
  r.dst_addr = net::Ipv4Address(198, 18, 0, 2);
  r.protocol = IpProtocol::kTcp;
  r.src_port = 51000;
  r.dst_port = 25;  // email-ports filter
  r.bytes = bytes;
  r.packets = 1;
  r.first = t;
  r.last = t;
  return r;
}

TEST_F(FlatClassifierTest, HeatmapBatchMatchesPerRecordAdd) {
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  ClassHeatmap per_record(classifier_, view_, weeks);
  ClassHeatmap batched(classifier_, view_, weeks);

  auto flows = fuzz_flows(classifier_, 20'000, 99);
  // Land half the fuzz flows in the base week so both weeks have volume.
  for (std::size_t i = 0; i < flows.size(); i += 2) {
    flows[i].first = weeks[0].begin.plus(
        static_cast<std::int64_t>(i) % net::kSecondsPerWeek);
  }

  for (const auto& r : flows) add_record(per_record, r, &reg_.trie());
  filter::FlowColumns cols;
  cols.build(flows, &reg_.trie());
  batched.add_batch(flows, cols);

  ASSERT_EQ(per_record.observed_classes(), batched.observed_classes());
  for (const AppClass cls : per_record.observed_classes()) {
    EXPECT_EQ(per_record.base_normalized(cls), batched.base_normalized(cls));
    EXPECT_EQ(per_record.diff_percent(cls, 1), batched.diff_percent(cls, 1));
    EXPECT_EQ(per_record.working_hours_growth(cls, 1),
              batched.working_hours_growth(cls, 1));
  }
}

TEST_F(FlatClassifierTest, OverlappingWeeksResolveToFirstInVectorOrder) {
  const TimeRange base = TimeRange::week_of(Date(2020, 2, 20));
  const TimeRange a = TimeRange::week_of(Date(2020, 3, 19));
  const TimeRange b = TimeRange::week_of(Date(2020, 3, 22));  // overlaps a
  const Timestamp overlap = Timestamp::from_date(Date(2020, 3, 23), 12);
  ASSERT_TRUE(a.contains(overlap));
  ASSERT_TRUE(b.contains(overlap));

  ClassHeatmap hm(classifier_, view_, {base, a, b});
  add_record(hm, email_flow(overlap, 5000), &reg_.trie());

  const auto slot_a = static_cast<std::size_t>(
      (overlap.seconds() - a.begin.seconds()) / net::kSecondsPerHour);
  const auto slot_b = static_cast<std::size_t>(
      (overlap.seconds() - b.begin.seconds()) / net::kSecondsPerHour);
  // Base week has no volume at these slots, so a deposited stage slot
  // reads +200% and an empty one reads 0 -- the flow must be in week `a`
  // (first in vector order containing it), not `b`.
  EXPECT_EQ(hm.diff_percent(AppClass::kEmail, 1)[slot_a], 200.0);
  EXPECT_EQ(hm.diff_percent(AppClass::kEmail, 2)[slot_b], 0.0);

  // Same flow, weeks listed in the other order: now `b` wins.
  ClassHeatmap swapped(classifier_, view_, {base, b, a});
  add_record(swapped, email_flow(overlap, 5000), &reg_.trie());
  EXPECT_EQ(swapped.diff_percent(AppClass::kEmail, 1)[slot_b], 200.0);
  EXPECT_EQ(swapped.diff_percent(AppClass::kEmail, 2)[slot_a], 0.0);
}

TEST_F(FlatClassifierTest, WeekBoundariesAreBeginInclusiveEndExclusive) {
  const TimeRange base = TimeRange::week_of(Date(2020, 2, 20));
  const TimeRange stage = TimeRange::week_of(Date(2020, 3, 19));
  ClassHeatmap hm(classifier_, view_, {base, stage});

  const auto add = [&](const flow::FlowRecord& r) {
    add_record(hm, r, &reg_.trie());
  };
  add(email_flow(stage.begin, 100));          // first second: in, slot 0
  add(email_flow(stage.end, 100));            // end: exclusive, dropped
  add(email_flow(stage.end.plus(-1), 100));   // last second: in, slot 167
  add(email_flow(base.begin.plus(-1), 100));  // before everything: dropped

  const auto diffs = hm.diff_percent(AppClass::kEmail, 1);
  EXPECT_EQ(diffs[0], 200.0);    // slot 0 deposited
  EXPECT_EQ(diffs[167], 200.0);  // slot 167 deposited
  // Everything else in the stage week stayed empty.
  for (std::size_t s = 1; s < 167; ++s) {
    if (diffs[s] != ClassHeatmap::kMaskedHour) EXPECT_EQ(diffs[s], 0.0) << s;
  }
}

TEST_F(FlatClassifierTest, BaseWeekListedChronologicallyLastStillWorks) {
  // weeks_[0] is the *base* by position, not by time; week_of must not
  // assume the vector is begin-sorted.
  const TimeRange base = TimeRange::week_of(Date(2020, 3, 19));
  const TimeRange earlier = TimeRange::week_of(Date(2020, 2, 20));
  ClassHeatmap hm(classifier_, view_, {base, earlier});

  const Timestamp in_earlier = Timestamp::from_date(Date(2020, 2, 21), 12);
  add_record(hm, email_flow(in_earlier, 4000), &reg_.trie());
  const auto slot = static_cast<std::size_t>(
      (in_earlier.seconds() - earlier.begin.seconds()) / net::kSecondsPerHour);
  EXPECT_EQ(hm.diff_percent(AppClass::kEmail, 1)[slot], 200.0);
}

}  // namespace
}  // namespace lockdown::analysis
