// Columnar batch kernels + scan engine (DESIGN.md §15).
//
//  * Differential suite: for EVERY analysis aggregator, feeding a 1M-flow
//    mixed synthetic stream through add_batch(records, FlowColumns) in
//    4096-record chunks must produce EXACTLY the state of the same stream
//    fed as 1-record batches through the add_record() adapter -- compared
//    with == on doubles, not tolerances. The exact-integer accumulation
//    invariant (util::counter_to_double) is what makes this equality
//    achievable; the chunked side exercises every run-grouped flush.
//  * WeekIndex / DayFlagsCache: the compiled calendar caches against the
//    naive per-record computations, including overlapping-week first-match.
//  * ScanPool / ScanEngine: sharded N-thread scans reduce to byte-identical
//    figure CSVs vs the 1-thread run (the --scan-threads contract). These
//    suites are named Scan* so the CI ThreadSanitizer job picks them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <string>
#include <vector>

#include "analysis/app_filter.hpp"
#include "analysis/class_activity.hpp"
#include "analysis/day_cache.hpp"
#include "analysis/edu.hpp"
#include "analysis/export.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/link_utilization.hpp"
#include "analysis/ports.hpp"
#include "analysis/remote_work.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "filter/plan.hpp"
#include "synth/as_registry.hpp"
#include "synth/member_model.hpp"
#include "synth/timeline.hpp"
#include "util/rng.hpp"

namespace lockdown::analysis {
namespace {

using flow::FlowRecord;
using flow::IpProtocol;
using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

constexpr std::size_t kStreamRecords = 1'000'000;

const synth::AsRegistry& reg() {
  static const synth::AsRegistry r = synth::AsRegistry::create_default();
  return r;
}

/// Mixed synthetic stream: random flows over Feb-Apr 2020 biased towards
/// the ports/ASes every aggregator keys on (hypergiants, EDU members,
/// eyeballs, VPN and service ports, GRE/ESP), time-sorted like a real
/// export stream (which also exercises the cached-day/week fast paths; the
/// caches' correctness on UNsorted input is covered separately below).
std::vector<FlowRecord> make_stream(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const TimeRange range{Timestamp::from_date(Date(2020, 2, 1)),
                        Timestamp::from_date(Date(2020, 5, 1))};
  const std::uint16_t service_ports[] = {443, 80,   8000, 993,  1194, 3478,
                                         8801, 5222, 22,   3389, 500,  4500,
                                         27001, 5223, 1701, 60000};
  const std::uint32_t as_pool[] = {15169, 20940, 2906,  8403,  13335, 6507,
                                   680,   766,   1103,  64700, 64701, 65001,
                                   65002, 64600, 32934, 0};
  const auto span = static_cast<std::uint64_t>(range.duration_seconds());

  std::vector<FlowRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FlowRecord r;
    r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng.engine()()));
    r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng.engine()()));
    if (rng.bernoulli(0.05)) {
      r.dst_addr = net::Ipv4Address(10, 1, 1, static_cast<std::uint8_t>(
                                                  1 + rng.uniform_u64(8)));
    }
    r.src_port = static_cast<std::uint16_t>(40000 + rng.uniform_u64(20000));
    r.dst_port = rng.bernoulli(0.7)
                     ? service_ports[rng.uniform_u64(std::size(service_ports))]
                     : static_cast<std::uint16_t>(rng.uniform_u64(65536));
    if (rng.bernoulli(0.2)) std::swap(r.src_port, r.dst_port);
    const double proto_die = rng.uniform();
    r.protocol = proto_die < 0.6    ? IpProtocol::kTcp
                 : proto_die < 0.92 ? IpProtocol::kUdp
                 : proto_die < 0.96 ? IpProtocol::kGre
                                    : IpProtocol::kEsp;
    r.bytes = 40 + rng.uniform_u64(1'000'000);
    r.packets = 1 + r.bytes / 1000;
    r.first = range.begin.plus(static_cast<std::int64_t>(rng.uniform_u64(span)));
    r.last = r.first.plus(static_cast<std::int64_t>(rng.uniform_u64(120)));
    r.src_as = Asn(rng.bernoulli(0.7)
                       ? as_pool[rng.uniform_u64(std::size(as_pool))]
                       : static_cast<std::uint32_t>(rng.uniform_u64(70000)));
    r.dst_as = Asn(rng.bernoulli(0.7)
                       ? as_pool[rng.uniform_u64(std::size(as_pool))]
                       : static_cast<std::uint32_t>(rng.uniform_u64(70000)));
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.first < b.first;
            });
  return out;
}

const std::vector<FlowRecord>& stream() {
  static const std::vector<FlowRecord> s = make_stream(kStreamRecords, 42);
  return s;
}

/// The reference side: every record as its own 1-record batch.
template <typename Consumer>
void feed_records(Consumer& consumer) {
  for (const FlowRecord& r : stream()) add_record(consumer, r, &reg().trie());
}

/// Feed `records` chunk-wise, building the shared columns once per chunk
/// exactly like ScanPool workers do.
template <typename Fn>
void feed_columns(std::span<const FlowRecord> records, Fn&& fn,
                  std::size_t chunk = 4096) {
  filter::FlowColumns cols;
  for (std::size_t off = 0; off < records.size(); off += chunk) {
    const auto batch = records.subspan(off, std::min(chunk, records.size() - off));
    cols.build(batch, &reg().trie());
    fn(batch, cols);
  }
}

const std::vector<TimeRange> kWeeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                       TimeRange::week_of(Date(2020, 3, 19)),
                                       TimeRange::week_of(Date(2020, 4, 16))};

std::set<net::IpAddress> vpn_candidates() {
  std::set<net::IpAddress> c;
  for (std::uint8_t i = 1; i <= 4; ++i) {
    c.insert(net::Ipv4Address(10, 1, 1, i));
  }
  return c;
}

// --- differential: chunked add_batch == 1-record batches, exactly -----------

TEST(BatchDifferential, VolumeAggregator) {
  VolumeAggregator rec(stats::Bucket::kDay);
  VolumeAggregator bat(stats::Bucket::kDay);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(rec.records(), bat.records());
  EXPECT_EQ(timeseries_table(rec.series()).to_csv(),
            timeseries_table(bat.series()).to_csv());
}

TEST(BatchDifferential, VolumeAggregatorWithCompiledPlan) {
  const filter::CompiledFilter plan =
      filter::CompiledFilter::compile("proto tcp and port 443", &reg().trie());
  VolumeAggregator rec(stats::Bucket::kDay, &plan);
  VolumeAggregator bat(stats::Bucket::kDay, &plan);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(rec.records(), bat.records());
  EXPECT_GT(rec.records(), 0u);
  EXPECT_LT(rec.records(), stream().size());
  EXPECT_EQ(timeseries_table(rec.series()).to_csv(),
            timeseries_table(bat.series()).to_csv());
}

TEST(BatchDifferential, PortAnalyzer) {
  PortAnalyzer rec(kWeeks);
  PortAnalyzer bat(kWeeks);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(rec.web_share(), bat.web_share());
  const auto top = rec.top_ports(12);
  ASSERT_EQ(top, bat.top_ports(12));
  const auto pr = rec.profiles(top);
  const auto pb = bat.profiles(top);
  ASSERT_EQ(pr.size(), pb.size());
  for (std::size_t i = 0; i < pr.size(); ++i) {
    EXPECT_EQ(pr[i].port, pb[i].port);
    EXPECT_EQ(pr[i].week_index, pb[i].week_index);
    for (unsigned h = 0; h < 24; ++h) {
      EXPECT_EQ(pr[i].workday[h], pb[i].workday[h]);
      EXPECT_EQ(pr[i].weekend[h], pb[i].weekend[h]);
    }
  }
}

TEST(BatchDifferential, HypergiantAnalyzer) {
  const AsView view(reg().trie());
  const AsnSet hgs(synth::AsRegistry::hypergiant_asns());
  HypergiantAnalyzer rec(view, hgs);
  HypergiantAnalyzer bat(view, hgs);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(rec.hypergiant_share(), bat.hypergiant_share());
  EXPECT_EQ(rec.per_hypergiant_bytes(), bat.per_hypergiant_bytes());
  const unsigned base_week = Date(2020, 2, 19).paper_week();
  const auto sr = rec.weekly_series(base_week);
  const auto sb = bat.weekly_series(base_week);
  ASSERT_EQ(sr.size(), sb.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].week, sb[i].week);
    EXPECT_EQ(sr[i].slice, sb[i].slice);
    EXPECT_EQ(sr[i].hypergiant, sb[i].hypergiant);
    EXPECT_EQ(sr[i].other, sb[i].other);
  }
}

TEST(BatchDifferential, EduAnalyzer) {
  const AsView view(reg().trie());
  const AsnSet universities({Asn(680), Asn(766), Asn(1103)});
  const AsnSet hgs(synth::AsRegistry::hypergiant_asns());
  EduAnalyzer rec(view, universities, hgs);
  EduAnalyzer bat(view, universities, hgs);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(rec.undetermined_fraction(), bat.undetermined_fraction());
  EXPECT_EQ(timeseries_table(rec.ingress_volume()).to_csv(),
            timeseries_table(bat.ingress_volume()).to_csv());
  EXPECT_EQ(timeseries_table(rec.egress_volume()).to_csv(),
            timeseries_table(bat.egress_volume()).to_csv());
  for (const Direction dir : {Direction::kIncoming, Direction::kOutgoing,
                              Direction::kUndetermined}) {
    EXPECT_EQ(rec.daily_connections(dir), bat.daily_connections(dir));
    for (const EduClass cls :
         {EduClass::kWeb, EduClass::kQuic, EduClass::kPushNotifications,
          EduClass::kEmail, EduClass::kVpn, EduClass::kSsh,
          EduClass::kRemoteDesktop, EduClass::kSpotify,
          EduClass::kHypergiantWeb}) {
      EXPECT_EQ(rec.daily_connections(cls, dir), bat.daily_connections(cls, dir));
    }
  }
}

TEST(BatchDifferential, ClassActivityTracker) {
  const AsView view(reg().trie());
  const auto classifier = AppClassifier::table1();
  ClassActivityTracker rec(classifier, view, AppClass::kWebConf);
  ClassActivityTracker bat(classifier, view, AppClass::kWebConf);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  const auto hr = rec.hourly();
  const auto hb = bat.hourly();
  ASSERT_EQ(hr.size(), hb.size());
  ASSERT_FALSE(hr.empty());
  for (std::size_t i = 0; i < hr.size(); ++i) {
    EXPECT_EQ(hr[i].hour, hb[i].hour);
    EXPECT_EQ(hr[i].bytes, hb[i].bytes);
    EXPECT_EQ(hr[i].unique_ips, hb[i].unique_ips);
  }
}

/// Chunked in the scan engine's 4096-record batches and in the collector's
/// datagram-sized (21-record) batches.
TEST(BatchDifferential, ClassHeatmapBothBatchPaths) {
  const AsView view(reg().trie());
  const auto classifier = AppClassifier::table1();
  ClassHeatmap rec(classifier, view, kWeeks);
  ClassHeatmap plain_batch(classifier, view, kWeeks);
  ClassHeatmap col_batch(classifier, view, kWeeks);
  feed_records(rec);
  feed_columns(
      stream(),
      [&](auto batch, const auto& cols) { plain_batch.add_batch(batch, cols); },
      21);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    col_batch.add_batch(batch, cols);
  });
  const auto classes = rec.observed_classes();
  ASSERT_EQ(classes, plain_batch.observed_classes());
  ASSERT_EQ(classes, col_batch.observed_classes());
  ASSERT_FALSE(classes.empty());
  for (const AppClass cls : classes) {
    const std::string expected = heatmap_table(rec, cls, kWeeks.size() - 1).to_csv();
    EXPECT_EQ(expected, heatmap_table(plain_batch, cls, kWeeks.size() - 1).to_csv());
    EXPECT_EQ(expected, heatmap_table(col_batch, cls, kWeeks.size() - 1).to_csv());
  }
}

TEST(BatchDifferential, RemoteWorkAnalyzer) {
  const AsView view(reg().trie());
  RemoteWorkAnalyzer rec(view, AsnSet({Asn(64700), Asn(64701)}),
                         AsnSet({Asn(65001)}), kWeeks[0], kWeeks[1]);
  RemoteWorkAnalyzer bat(view, AsnSet({Asn(64700), Asn(64701)}),
                         AsnSet({Asn(65001)}), kWeeks[0], kWeeks[1]);
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  const auto sr = rec.shifts();
  const auto sb = bat.shifts();
  ASSERT_EQ(sr.size(), sb.size());
  ASSERT_FALSE(sr.empty());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].asn, sb[i].asn);
    EXPECT_EQ(sr[i].total_shift, sb[i].total_shift);
    EXPECT_EQ(sr[i].residential_shift, sb[i].residential_shift);
    EXPECT_EQ(sr[i].feb_bytes, sb[i].feb_bytes);
    EXPECT_EQ(sr[i].mar_bytes, sb[i].mar_bytes);
    EXPECT_EQ(sr[i].group, sb[i].group);
  }
}

TEST(BatchDifferential, VpnAnalyzer) {
  VpnAnalyzer rec(kWeeks, vpn_candidates());
  VpnAnalyzer bat(kWeeks, vpn_candidates());
  feed_records(rec);
  feed_columns(stream(), [&](auto batch, const auto& cols) {
    bat.add_batch(batch, cols);
  });
  EXPECT_EQ(vpn_profile_table(rec.profiles()).to_csv(),
            vpn_profile_table(bat.profiles()).to_csv());
  for (std::size_t w = 1; w < kWeeks.size(); ++w) {
    EXPECT_EQ(rec.working_hours_growth(VpnMethod::kPort, w),
              bat.working_hours_growth(VpnMethod::kPort, w));
    EXPECT_EQ(rec.working_hours_growth(VpnMethod::kDomain, w),
              bat.working_hours_growth(VpnMethod::kDomain, w));
  }
}

TEST(BatchDifferential, LinkUtilizationMergeEqualsWholeDay) {
  const auto tl = synth::EpidemicTimeline::for_region(synth::Region::kCentralEurope);
  const synth::IxpMemberModel model({.seed = 3, .members = 300}, tl);
  const auto day = model.simulate_day(Date(2020, 4, 22));
  const auto whole = LinkUtilizationAnalyzer::analyze(day);
  const std::span<const synth::PortDayUtilization> all(day);
  auto left = LinkUtilizationAnalyzer::analyze(all.first(day.size() / 3));
  const auto right = LinkUtilizationAnalyzer::analyze(all.subspan(day.size() / 3));
  left.merge(right);
  for (const double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(whole.min_util.quantile(q), left.min_util.quantile(q));
    EXPECT_EQ(whole.avg_util.quantile(q), left.avg_util.quantile(q));
    EXPECT_EQ(whole.max_util.quantile(q), left.max_util.quantile(q));
  }
}

// --- calendar caches ---------------------------------------------------------

TEST(WeekIndexLookup, FirstMatchSemanticsUnderOverlap) {
  // Overlapping ranges: the linear scan returns the FIRST containing range
  // in construction order, not the latest-starting one. A naive "cache the
  // last containing week" would get this wrong.
  const std::vector<TimeRange> weeks = {
      TimeRange::week_of(Date(2020, 3, 19)),
      {Timestamp::from_date(Date(2020, 3, 16)),
       Timestamp::from_date(Date(2020, 3, 30))},
      TimeRange::week_of(Date(2020, 2, 20)),
  };
  WeekIndex index(weeks);
  util::Rng rng(5);
  const Timestamp lo = Timestamp::from_date(Date(2020, 2, 10));
  for (int i = 0; i < 50000; ++i) {
    const Timestamp t =
        lo.plus(static_cast<std::int64_t>(rng.uniform_u64(60ull * 86400)));
    std::size_t expected = weeks.size();
    for (std::size_t w = 0; w < weeks.size(); ++w) {
      if (weeks[w].contains(t)) {
        expected = w;
        break;
      }
    }
    ASSERT_EQ(index.lookup(t), expected) << t.seconds();
  }
}

TEST(DayFlagsCacheLookup, MatchesDirectComputation) {
  DayFlagsCache cache;
  util::Rng rng(9);
  const Timestamp lo = Timestamp::from_date(Date(2020, 1, 1));
  for (int i = 0; i < 50000; ++i) {
    const Timestamp t =
        lo.plus(static_cast<std::int64_t>(rng.uniform_u64(400ull * 86400)));
    const DayFlagsCache::Flags& f = cache.at(t);
    const Date d = t.date();
    ASSERT_EQ(f.day_begin, t.floor_day().seconds());
    ASSERT_EQ(f.date, d);
    ASSERT_EQ(f.paper_week, d.paper_week());
    ASSERT_EQ(f.weekend, d.is_weekend_day());
    ASSERT_EQ(f.weekend_or_holiday,
              d.is_weekend_day() || synth::is_holiday_2020(d));
    ASSERT_EQ(DayFlagsCache::hour_of(f, t), t.hour_of_day());
  }
}

// --- scan engine -------------------------------------------------------------

/// Sub-stream for the threaded tests (they run under TSan in CI; the full
/// 1M stream is exercised by the differential suite above). Strided so all
/// three months stay covered.
std::vector<FlowRecord> strided_stream(std::size_t stride) {
  std::vector<FlowRecord> out;
  out.reserve(stream().size() / stride + 1);
  for (std::size_t i = 0; i < stream().size(); i += stride) {
    out.push_back(stream()[i]);
  }
  return out;
}

TEST(ScanPool, DeliversEveryRecordExactlyOnceAcrossLanes) {
  const auto records = strided_stream(16);
  // Per-lane tallies: each slot is written by exactly one worker thread and
  // read only after finish() joins, so plain integers suffice (TSan agrees).
  std::array<std::uint64_t, 4> lane_bytes{};
  std::array<std::uint64_t, 4> lane_records{};
  ScanPool counting(
      4,
      [&](unsigned worker, std::span<const FlowRecord> batch,
          const filter::FlowColumns& cols) {
        ASSERT_LT(worker, 4u);
        ASSERT_EQ(cols.service.size(), batch.size());
        ASSERT_EQ(cols.src_as.size(), batch.size());
        for (const FlowRecord& r : batch) lane_bytes[worker] += r.bytes;
        lane_records[worker] += batch.size();
      },
      &reg().trie(), 512);
  // Uneven feed sizes straddle chunk boundaries.
  std::span<const FlowRecord> rest(records);
  const std::size_t cuts[] = {1, 7, 511, 513, 4096, 9999};
  std::size_t c = 0;
  while (!rest.empty()) {
    const std::size_t take = std::min(cuts[c++ % std::size(cuts)], rest.size());
    counting.feed(rest.first(take));
    rest = rest.subspan(take);
  }
  counting.finish();
  counting.finish();  // idempotent
  std::uint64_t total_bytes = 0, total_records = 0, expected_bytes = 0;
  for (int i = 0; i < 4; ++i) {
    total_bytes += lane_bytes[i];
    total_records += lane_records[i];
  }
  for (const FlowRecord& r : records) expected_bytes += r.bytes;
  EXPECT_EQ(total_records, records.size());
  EXPECT_EQ(total_bytes, expected_bytes);
  // All four lanes actually saw work (round-robin dispatch).
  for (int i = 0; i < 4; ++i) EXPECT_GT(lane_records[i], 0u);
}

TEST(ScanPool, InlineModeProcessesOnCallingThread) {
  const auto records = strided_stream(64);
  std::size_t seen = 0;
  ScanPool pool(
      1,
      [&](unsigned worker, std::span<const FlowRecord> batch,
          const filter::FlowColumns& cols) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(cols.service.size(), batch.size());
        seen += batch.size();
      },
      &reg().trie());
  pool.feed(records);
  EXPECT_EQ(seen, records.size());  // inline: processed before feed returns
  pool.finish();
  EXPECT_EQ(pool.lanes(), 1u);
}

/// All figure aggregators whose CSVs lockdown_report/figure_export emit
/// through the scan path, bundled per worker lane.
struct FigureBundle {
  VolumeAggregator volume;
  PortAnalyzer ports;
  HypergiantAnalyzer hyper;
  ClassHeatmap heatmap;
  VpnAnalyzer vpn;

  void add_batch(std::span<const FlowRecord> records,
                 const filter::FlowColumns& cols) {
    volume.add_batch(records, cols);
    ports.add_batch(records, cols);
    hyper.add_batch(records, cols);
    heatmap.add_batch(records, cols);
    vpn.add_batch(records, cols);
  }

  void merge(const FigureBundle& o) {
    volume.merge(o.volume);
    ports.merge(o.ports);
    hyper.merge(o.hyper);
    heatmap.merge(o.heatmap);
    vpn.merge(o.vpn);
  }
};

std::vector<std::string> render_figures(FigureBundle& b) {
  std::vector<std::string> out;
  out.push_back(timeseries_table(b.volume.series()).to_csv());
  const auto top = b.ports.top_ports(12);
  for (const auto& p : b.ports.profiles(top)) {
    std::string row = p.port.to_string() + "," + std::to_string(p.week_index);
    for (unsigned h = 0; h < 24; ++h) {
      row += "," + std::to_string(p.workday[h]) + "," + std::to_string(p.weekend[h]);
    }
    out.push_back(std::move(row));
  }
  for (const auto& ws :
       b.hyper.weekly_series(Date(2020, 2, 19).paper_week())) {
    out.push_back(std::to_string(ws.week) + "," + to_string(ws.slice) + "," +
                  std::to_string(ws.hypergiant) + "," + std::to_string(ws.other));
  }
  for (const AppClass cls : b.heatmap.observed_classes()) {
    out.push_back(heatmap_table(b.heatmap, cls, kWeeks.size() - 1).to_csv());
  }
  out.push_back(vpn_profile_table(b.vpn.profiles()).to_csv());
  return out;
}

TEST(ScanEngineDeterminism, FourThreadsByteIdenticalToOne) {
  const auto records = strided_stream(8);  // 125k flows, TSan-friendly
  const AsView view(reg().trie());
  const auto classifier = AppClassifier::table1();
  const AsnSet hgs(synth::AsRegistry::hypergiant_asns());
  const auto factory = [&] {
    return FigureBundle{VolumeAggregator(stats::Bucket::kDay),
                        PortAnalyzer(kWeeks),
                        HypergiantAnalyzer(view, hgs),
                        ClassHeatmap(classifier, view, kWeeks),
                        VpnAnalyzer(kWeeks, vpn_candidates())};
  };

  std::vector<std::vector<std::string>> rendered;
  for (const unsigned threads : {1u, 4u}) {
    ScanEngine<FigureBundle> engine(threads, factory, &reg().trie(), 512);
    EXPECT_EQ(engine.lanes(), threads);
    std::span<const FlowRecord> rest(records);
    const std::size_t cuts[] = {3, 1024, 511, 8192, 77};
    std::size_t c = 0;
    while (!rest.empty()) {
      const std::size_t take = std::min(cuts[c++ % std::size(cuts)], rest.size());
      engine.feed(rest.first(take));
      rest = rest.subspan(take);
    }
    rendered.push_back(render_figures(engine.finish()));
  }

  ASSERT_EQ(rendered[0].size(), rendered[1].size());
  for (std::size_t i = 0; i < rendered[0].size(); ++i) {
    EXPECT_EQ(rendered[0][i], rendered[1][i]) << "figure artifact " << i;
  }

  // And the 1-thread scan equals the same stream fed as 1-record batches.
  FigureBundle ref = factory();
  for (const FlowRecord& r : records) add_record(ref, r, &reg().trie());
  const auto ref_rendered = render_figures(ref);
  ASSERT_EQ(ref_rendered.size(), rendered[0].size());
  for (std::size_t i = 0; i < ref_rendered.size(); ++i) {
    EXPECT_EQ(ref_rendered[i], rendered[0][i]) << "figure artifact " << i;
  }
}

TEST(ScanEngineDeterminism, EveryThreadCountAgreesOnEduTables) {
  const auto records = strided_stream(16);
  const AsView view(reg().trie());
  const AsnSet universities({Asn(680), Asn(766), Asn(1103)});
  const AsnSet hgs(synth::AsRegistry::hypergiant_asns());
  struct EduBundle {
    EduAnalyzer edu;
    ClassActivityTracker activity;
    void add_batch(std::span<const FlowRecord> r, const filter::FlowColumns& c) {
      edu.add_batch(r, c);
      activity.add_batch(r, c);
    }
    void merge(const EduBundle& o) {
      edu.merge(o.edu);
      activity.merge(o.activity);
    }
  };
  const auto classifier = AppClassifier::table1();
  const auto factory = [&] {
    return EduBundle{EduAnalyzer(view, universities, hgs),
                     ClassActivityTracker(classifier, view, AppClass::kWebConf)};
  };

  std::string first_csv;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ScanEngine<EduBundle> engine(threads, factory, &reg().trie());
    engine.feed(records);
    EduBundle& result = engine.finish();
    std::string csv = timeseries_table(result.edu.ingress_volume()).to_csv();
    csv += timeseries_table(result.edu.egress_volume()).to_csv();
    for (const auto& [day, count] :
         result.edu.daily_connections(Direction::kIncoming)) {
      csv += std::to_string(day.year()) + "-" + std::to_string(day.month()) +
             "-" + std::to_string(day.day()) + "," + std::to_string(count) + "\n";
    }
    for (const auto& hp : result.activity.hourly()) {
      csv += std::to_string(hp.hour.seconds()) + "," + std::to_string(hp.bytes) +
             "," + std::to_string(hp.unique_ips) + "\n";
    }
    if (first_csv.empty()) {
      first_csv = csv;
    } else {
      EXPECT_EQ(first_csv, csv) << threads << " threads";
    }
  }
  ASSERT_FALSE(first_csv.empty());
}

}  // namespace
}  // namespace lockdown::analysis
