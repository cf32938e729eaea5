// Tests for the application classifier (Table 1), heatmaps (Fig 9), port
// analysis (Fig 7), class activity (Fig 8), VPN (Fig 10) and remote-work
// AS identification (Fig 6).
#include <gtest/gtest.h>

#include "analysis/app_filter.hpp"
#include "analysis/class_activity.hpp"
#include "analysis/ports.hpp"
#include "analysis/remote_work.hpp"
#include "analysis/scan.hpp"
#include "analysis/vpn.hpp"
#include "synth/as_registry.hpp"

namespace lockdown::analysis {
namespace {

using flow::IpProtocol;
using flow::PortKey;
using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

flow::FlowRecord flow_at(Timestamp t, std::uint64_t bytes, Asn src, Asn dst,
                         IpProtocol proto, std::uint16_t dst_port,
                         std::uint16_t src_port = 51000) {
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(198, 18, 0, 1);
  r.dst_addr = net::Ipv4Address(198, 18, 0, 2);
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.protocol = proto;
  r.bytes = bytes;
  r.packets = 1;
  r.first = t;
  r.last = t;
  r.src_as = src;
  r.dst_as = dst;
  return r;
}

class AppFilterTest : public ::testing::Test {
 protected:
  AppFilterTest()
      : reg_(synth::AsRegistry::create_default()), view_(reg_.trie()),
        classifier_(AppClassifier::table1()) {}

  std::optional<AppClass> classify(Asn src, Asn dst, IpProtocol proto,
                                   std::uint16_t port) {
    return classifier_.classify(
        flow_at(Timestamp::from_date(Date(2020, 2, 20), 12), 100, src, dst,
                proto, port),
        view_);
  }

  synth::AsRegistry reg_;
  AsView view_;
  AppClassifier classifier_;
};

TEST_F(AppFilterTest, Table1CountsMatchThePaper) {
  // Table 1 rows: class -> (#filters, #ASNs, #ports).
  const std::map<AppClass, std::tuple<std::size_t, std::size_t, std::size_t>>
      expected = {
          {AppClass::kWebConf, {7, 1, 6}},   {AppClass::kVod, {5, 5, 0}},
          {AppClass::kGaming, {8, 5, 57}},   {AppClass::kSocialMedia, {4, 4, 1}},
          {AppClass::kMessaging, {3, 0, 5}}, {AppClass::kEmail, {1, 0, 10}},
          {AppClass::kEducational, {9, 9, 0}}, {AppClass::kCollabWork, {8, 2, 9}},
          {AppClass::kCdn, {8, 8, 0}},
      };
  const auto stats = classifier_.table_stats();
  ASSERT_EQ(stats.size(), expected.size());
  for (const auto& s : stats) {
    const auto it = expected.find(s.app_class);
    ASSERT_NE(it, expected.end()) << synth::to_string(s.app_class);
    EXPECT_EQ(s.filters, std::get<0>(it->second)) << synth::to_string(s.app_class);
    EXPECT_EQ(s.distinct_asns, std::get<1>(it->second)) << synth::to_string(s.app_class);
    EXPECT_EQ(s.distinct_ports, std::get<2>(it->second)) << synth::to_string(s.app_class);
  }
  // ">50 combinations of transport port and AS criteria" (§5).
  EXPECT_GT(classifier_.filters().size(), 50u);
}

TEST_F(AppFilterTest, ClassifiesByPortAndAs) {
  const Asn eyeball(64700);
  // Port-based.
  EXPECT_EQ(classify(eyeball, Asn(65001), IpProtocol::kUdp, 8801), AppClass::kWebConf);
  EXPECT_EQ(classify(eyeball, Asn(65001), IpProtocol::kTcp, 993), AppClass::kEmail);
  EXPECT_EQ(classify(eyeball, Asn(65001), IpProtocol::kUdp, 27015), AppClass::kGaming);
  EXPECT_EQ(classify(eyeball, Asn(65001), IpProtocol::kTcp, 5222), AppClass::kMessaging);
  // AS-based.
  EXPECT_EQ(classify(eyeball, Asn(2906), IpProtocol::kTcp, 443), AppClass::kVod);
  EXPECT_EQ(classify(eyeball, Asn(20940), IpProtocol::kTcp, 443), AppClass::kCdn);
  EXPECT_EQ(classify(eyeball, Asn(680), IpProtocol::kTcp, 443), AppClass::kEducational);
  EXPECT_EQ(classify(eyeball, Asn(19679), IpProtocol::kTcp, 443), AppClass::kCollabWork);
  // Combined (AS + port): Teams/Skype STUN on Microsoft's AS.
  EXPECT_EQ(classify(eyeball, Asn(8075), IpProtocol::kUdp, 3480), AppClass::kWebConf);
  // No filter matches plain web to a generic enterprise.
  EXPECT_EQ(classify(eyeball, Asn(65001), IpProtocol::kTcp, 443), std::nullopt);
}

TEST_F(AppFilterTest, ResolvesAsViaTrieWhenUnannotated) {
  auto r = flow_at(Timestamp::from_date(Date(2020, 2, 20), 12), 100, Asn(0),
                   Asn(0), IpProtocol::kTcp, 443);
  r.dst_addr = reg_.at(Asn(2906)).host(3);  // a Netflix address
  EXPECT_EQ(classifier_.classify(r, view_), AppClass::kVod);
}

TEST_F(AppFilterTest, GamingPortFiltersBeatAsFallthrough) {
  // Gaming ports on a hypergiant AS still classify as gaming (port filters
  // are registered before the AS-wide CDN/VoD filters).
  EXPECT_EQ(classify(Asn(64700), Asn(20940), IpProtocol::kUdp, 3074),
            AppClass::kGaming);
}

TEST_F(AppFilterTest, RejectsUnconstrainedFilter) {
  EXPECT_THROW(AppClassifier({AppFilter{"empty", AppClass::kWeb, {}, {}}}),
               std::invalid_argument);
}

// --- ClassHeatmap ------------------------------------------------------------

class HeatmapTest : public ::testing::Test {
 protected:
  HeatmapTest()
      : reg_(synth::AsRegistry::create_default()), view_(reg_.trie()),
        classifier_(AppClassifier::table1()),
        weeks_({TimeRange::week_of(Date(2020, 2, 20)),
                TimeRange::week_of(Date(2020, 3, 19))}),
        heatmap_(classifier_, view_, weeks_) {}

  synth::AsRegistry reg_;
  AsView view_;
  AppClassifier classifier_;
  std::vector<TimeRange> weeks_;
  ClassHeatmap heatmap_;
};

TEST_F(HeatmapTest, RequiresSaneWeeks) {
  EXPECT_THROW(ClassHeatmap(classifier_, view_, {weeks_[0]}), std::invalid_argument);
  EXPECT_THROW(ClassHeatmap(classifier_, view_,
                            {weeks_[0], TimeRange{weeks_[1].begin,
                                                  weeks_[1].begin.plus(3600)}}),
               std::invalid_argument);
}

TEST_F(HeatmapTest, DiffClampsAt200PercentAndMasksEarlyMorning) {
  // Base: 100 bytes of email at 12:00 Thursday; stage: 500 bytes (+400%).
  add_record(heatmap_, flow_at(weeks_[0].begin.plus(12 * 3600), 100, Asn(64700),
                               Asn(65001), IpProtocol::kTcp, 993));
  add_record(heatmap_, flow_at(weeks_[1].begin.plus(12 * 3600), 500, Asn(64700),
                               Asn(65001), IpProtocol::kTcp, 993));
  const auto diff = heatmap_.diff_percent(AppClass::kEmail, 1);
  EXPECT_DOUBLE_EQ(diff[12], 200.0);  // clamped from +400
  EXPECT_DOUBLE_EQ(diff[3], ClassHeatmap::kMaskedHour);  // 2-7 am removed

  const auto base = heatmap_.base_normalized(AppClass::kEmail);
  EXPECT_DOUBLE_EQ(base[3], ClassHeatmap::kMaskedHour);
  EXPECT_GE(base[12], 0.0);
  EXPECT_LE(base[12], 1.0);
}

TEST_F(HeatmapTest, DecreaseClampsAtMinus100) {
  add_record(heatmap_, flow_at(weeks_[0].begin.plus(10 * 3600), 1000, Asn(64700),
                               Asn(2906), IpProtocol::kTcp, 443));
  // Stage week: nothing (total disappearance).
  const auto diff = heatmap_.diff_percent(AppClass::kVod, 1);
  EXPECT_DOUBLE_EQ(diff[10], -100.0);
}

// --- PortAnalyzer ------------------------------------------------------------

TEST(PortAnalyzer, TopPortsExcludeWebAndRankByVolume) {
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20))};
  PortAnalyzer pa(weeks);
  const Timestamp t = weeks[0].begin.plus(12 * 3600);
  add_record(pa, flow_at(t, 10000, Asn(1), Asn(2), IpProtocol::kTcp, 443));
  add_record(pa, flow_at(t, 8000, Asn(1), Asn(2), IpProtocol::kTcp, 80));
  add_record(pa, flow_at(t, 500, Asn(1), Asn(2), IpProtocol::kUdp, 443));
  add_record(pa, flow_at(t, 300, Asn(1), Asn(2), IpProtocol::kUdp, 4500));
  add_record(pa, flow_at(t, 100, Asn(1), Asn(2), IpProtocol::kTcp, 993));

  const auto top = pa.top_ports(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (PortKey{IpProtocol::kUdp, 443}));
  EXPECT_EQ(top[1], (PortKey{IpProtocol::kUdp, 4500}));
  EXPECT_EQ(top[2], (PortKey{IpProtocol::kTcp, 993}));
  EXPECT_NEAR(pa.web_share(), 18000.0 / 18900.0, 1e-9);

  const auto with_web = pa.top_ports(2, /*skip_web=*/false);
  EXPECT_EQ(with_web[0], (PortKey{IpProtocol::kTcp, 443}));
}

TEST(PortAnalyzer, ProfilesNormalizedAcrossWeeks) {
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  PortAnalyzer pa(weeks);
  // Thursday 12:00 each week: 100 then 300 bytes on UDP/4500.
  add_record(pa, flow_at(weeks[0].begin.plus(12 * 3600), 100, Asn(1), Asn(2),
                         IpProtocol::kUdp, 4500));
  add_record(pa, flow_at(weeks[1].begin.plus(12 * 3600), 300, Asn(1), Asn(2),
                         IpProtocol::kUdp, 4500));

  const auto profiles = pa.profiles({PortKey{IpProtocol::kUdp, 4500}});
  ASSERT_EQ(profiles.size(), 2u);
  // Shared normalization: week 1 peaks at 1/3, week 2 at 1.0.
  EXPECT_NEAR(profiles[0].workday[12], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(profiles[1].workday[12], 1.0, 1e-9);
}

TEST(PortAnalyzer, GreAndEspAggregateWithoutPorts) {
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20))};
  PortAnalyzer pa(weeks);
  auto r = flow_at(weeks[0].begin.plus(12 * 3600), 700, Asn(1), Asn(2),
                   IpProtocol::kGre, 0, 0);
  add_record(pa, r);
  const auto top = pa.top_ports(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].proto, IpProtocol::kGre);
  EXPECT_EQ(top[0].to_string(), "GRE");
}

// --- ClassActivityTracker ----------------------------------------------------

TEST(ClassActivity, CountsUniqueIpsAndVolumePerHour) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const auto classifier = AppClassifier::table1();
  ClassActivityTracker tracker(classifier, view, AppClass::kGaming);

  const Timestamp h0 = Timestamp::from_date(Date(2020, 2, 20), 20);
  auto gaming_flow = [&](std::uint32_t client, Timestamp t) {
    auto r = flow_at(t, 1000, Asn(64710), Asn(32590), IpProtocol::kUdp, 27001);
    r.src_addr = net::Ipv4Address(client);
    r.dst_addr = net::Ipv4Address(0xca000001);
    return r;
  };
  add_record(tracker, gaming_flow(0x0a000001, h0));
  add_record(tracker, gaming_flow(0x0a000002, h0.plus(60)));
  add_record(tracker, gaming_flow(0x0a000001, h0.plus(120)));  // repeat client
  // Non-gaming flow is ignored.
  add_record(tracker, flow_at(h0, 999999, Asn(64710), Asn(65001), IpProtocol::kTcp, 443));

  const auto hourly = tracker.hourly();
  ASSERT_EQ(hourly.size(), 1u);
  EXPECT_DOUBLE_EQ(hourly[0].bytes, 3000.0);
  EXPECT_EQ(hourly[0].unique_ips, 3u);  // 2 clients + 1 server
}

TEST(ClassActivity, EnvelopesNormalizedToMinimum) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const auto classifier = AppClassifier::table1();
  ClassActivityTracker tracker(classifier, view, AppClass::kGaming);

  // Two days, hours with volumes 100..123 and 200..223.
  for (int day = 0; day < 2; ++day) {
    for (unsigned h = 0; h < 24; ++h) {
      auto r = flow_at(Timestamp::from_date(Date(2020, 2, 20).plus_days(day), h),
                       100 * (day + 1) + h, Asn(64710), Asn(32590),
                       IpProtocol::kUdp, 27001);
      add_record(tracker, r);
    }
  }
  const auto env = tracker.daily_volume_envelope();
  ASSERT_EQ(env.size(), 2u);
  EXPECT_DOUBLE_EQ(env[0].min, 1.0);  // global minimum hour = 100 bytes
  EXPECT_NEAR(env[1].max, 2.23, 1e-9);
  EXPECT_GT(env[1].avg, env[0].avg);
}

TEST(ClassActivity, EnvelopeNormalizesBySmallestPositiveHour) {
  // Regression: an idle hour (zero bytes) used to collapse the global
  // minimum to zero, hit the 1.0 fallback, and silently turn the envelope
  // into raw byte values instead of Fig 8's "x minimum" units.
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const auto classifier = AppClassifier::table1();
  ClassActivityTracker tracker(classifier, view, AppClass::kGaming);

  const Date day(2020, 2, 20);
  add_record(tracker, flow_at(Timestamp::from_date(day, 0), 0, Asn(64710), Asn(32590),
                              IpProtocol::kUdp, 27001));  // idle hour: zero bytes
  add_record(tracker, flow_at(Timestamp::from_date(day, 1), 50, Asn(64710),
                              Asn(32590), IpProtocol::kUdp, 27001));
  add_record(tracker, flow_at(Timestamp::from_date(day, 2), 100, Asn(64710),
                              Asn(32590), IpProtocol::kUdp, 27001));

  const auto env = tracker.daily_volume_envelope();
  ASSERT_EQ(env.size(), 1u);
  // Normalized by the smallest *positive* hour (50), not the zero hour.
  EXPECT_DOUBLE_EQ(env[0].min, 0.0);
  EXPECT_DOUBLE_EQ(env[0].max, 2.0);
  EXPECT_DOUBLE_EQ(env[0].avg, 1.0);

  // A series with no positive hour at all still avoids dividing by zero.
  ClassActivityTracker idle(classifier, view, AppClass::kGaming);
  add_record(idle, flow_at(Timestamp::from_date(day, 3), 0, Asn(64710), Asn(32590),
                           IpProtocol::kUdp, 27001));
  const auto flat = idle.daily_volume_envelope();
  ASSERT_EQ(flat.size(), 1u);
  EXPECT_DOUBLE_EQ(flat[0].max, 0.0);
}

// --- VpnAnalyzer --------------------------------------------------------------

TEST(VpnAnalyzer, PortClassification) {
  auto t = Timestamp::from_date(Date(2020, 2, 20), 12);
  EXPECT_TRUE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kUdp, 4500)));
  EXPECT_TRUE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kTcp, 1194)));
  EXPECT_TRUE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kGre, 0, 0)));
  EXPECT_TRUE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kEsp, 0, 0)));
  EXPECT_FALSE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kTcp, 443)));
  EXPECT_FALSE(VpnAnalyzer::is_port_vpn(
      flow_at(t, 1, Asn(1), Asn(2), IpProtocol::kUdp, 53)));
}

TEST(VpnAnalyzer, DomainClassificationAndGrowth) {
  const auto candidate = *net::IpAddress::parse("203.0.113.99");
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  VpnAnalyzer vpn(weeks, {candidate});

  auto tls_flow = [&](Timestamp t, std::uint64_t bytes, bool to_candidate) {
    auto r = flow_at(t, bytes, Asn(64700), Asn(65001), IpProtocol::kTcp, 443);
    if (to_candidate) r.dst_addr = candidate;
    return r;
  };
  // Base week workday noon: 100 bytes domain-VPN; stage week: 350.
  add_record(vpn, tls_flow(weeks[0].begin.plus(12 * 3600), 100, true));
  add_record(vpn, tls_flow(weeks[1].begin.plus(12 * 3600), 350, true));
  // Plain TLS is ignored.
  add_record(vpn, tls_flow(weeks[1].begin.plus(12 * 3600), 100000, false));
  // Port VPN flat.
  add_record(vpn, flow_at(weeks[0].begin.plus(12 * 3600), 200, Asn(64700), Asn(65001),
                          IpProtocol::kUdp, 4500));
  add_record(vpn, flow_at(weeks[1].begin.plus(12 * 3600), 210, Asn(64700), Asn(65001),
                          IpProtocol::kUdp, 4500));

  EXPECT_NEAR(vpn.working_hours_growth(VpnMethod::kDomain, 1), 250.0, 1e-9);
  EXPECT_NEAR(vpn.working_hours_growth(VpnMethod::kPort, 1), 5.0, 1e-9);

  const auto profiles = vpn.profiles();
  ASSERT_EQ(profiles.size(), 4u);  // 2 weeks x 2 methods
  double max_seen = 0.0;
  for (const auto& p : profiles) {
    for (unsigned h = 0; h < 24; ++h) {
      max_seen = std::max({max_seen, p.workday[h], p.weekend[h]});
    }
  }
  EXPECT_DOUBLE_EQ(max_seen, 1.0);  // shared normalization
}

// --- RemoteWorkAnalyzer ------------------------------------------------------

TEST(RemoteWork, ShiftsGroupsAndQuadrants) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const AsnSet eyeballs({Asn(64700), Asn(64701)});
  const AsnSet local({Asn(64700)});
  const TimeRange feb = TimeRange::week_of(Date(2020, 2, 19));
  const TimeRange mar = TimeRange::week_of(Date(2020, 3, 18));
  RemoteWorkAnalyzer rw(view, eyeballs, local, feb, mar);

  // AS 65001: residential-facing, grows 2x -- workday-dominated. The weeks
  // start on a Wednesday, so weekdays are at day offsets 0,1,2,5,6.
  for (const int day : {0, 1, 2, 5, 6}) {
    add_record(rw, flow_at(feb.begin.plus(day * 86400 + 10 * 3600), 100, Asn(65001),
                           Asn(64700), IpProtocol::kTcp, 443));
    add_record(rw, flow_at(mar.begin.plus(day * 86400 + 10 * 3600), 200, Asn(65001),
                           Asn(64700), IpProtocol::kTcp, 443));
  }
  // AS 65002: b2b only (no eyeball), shrinks by half.
  add_record(rw, flow_at(feb.begin.plus(10 * 3600), 400, Asn(65002), Asn(64650),
                         IpProtocol::kTcp, 443));
  add_record(rw, flow_at(mar.begin.plus(10 * 3600), 200, Asn(65002), Asn(64650),
                         IpProtocol::kTcp, 443));

  const auto shifts = rw.shifts();
  // Population excludes eyeballs and the local AS; 64650 (hosting) also
  // appears as a counterparty.
  std::map<std::uint32_t, AsShift> by_asn;
  for (const auto& s : shifts) by_asn[s.asn.value()] = s;

  ASSERT_TRUE(by_asn.contains(65001));
  EXPECT_NEAR(by_asn[65001].total_shift, 0.5, 1e-9);        // (200-100)/200
  EXPECT_NEAR(by_asn[65001].residential_shift, 0.5, 1e-9);
  EXPECT_EQ(by_asn[65001].group, WeekRatioGroup::kWorkdayDominated);

  ASSERT_TRUE(by_asn.contains(65002));
  EXPECT_NEAR(by_asn[65002].total_shift, -0.5, 1e-9);
  EXPECT_DOUBLE_EQ(by_asn[65002].residential_shift, 0.0);
  EXPECT_FALSE(by_asn.contains(64700));

  const auto q = rw.quadrants(WeekRatioGroup::kWorkdayDominated);
  EXPECT_GE(q.up_up, 1u);
}

}  // namespace
}  // namespace lockdown::analysis
