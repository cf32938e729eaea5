// End-to-end integration tests: synthesize flows, push them through the
// vantage point's real wire protocol (encode -> datagrams -> decode ->
// anonymize), then verify that the analyses recover the paper's effects
// from the collected records alone.
#include <gtest/gtest.h>

#include "analysis/app_filter.hpp"
#include "analysis/edu.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "dns/corpus.hpp"
#include "dns/vpn_finder.hpp"
#include "filter/plan.hpp"
#include "synth/vantage.hpp"

namespace lockdown {
namespace {

using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() : reg_(synth::AsRegistry::create_default()) {}

  /// Synthesize `range` at `vp` through its wire protocol into
  /// `consumer.add_batch`, one batch per decoded datagram; every datagram
  /// must decode cleanly.
  template <typename Consumer>
  void feed(const synth::VantagePoint& vp, TimeRange range,
            double connections_per_hour, Consumer& consumer,
            const flow::Anonymizer* anonymizer = nullptr) {
    filter::FlowColumns cols;
    const flow::CollectorStats stats = analysis::synthesize_through_wire(
        vp, reg_, range, {.connections_per_hour = connections_per_hour},
        [&](std::span<const flow::FlowRecord> batch) {
          cols.build(batch, &reg_.trie());
          consumer.add_batch(batch, cols);
        },
        anonymizer);
    EXPECT_EQ(stats.malformed_packets, 0u);
  }

  synth::AsRegistry reg_;
};

TEST_F(IntegrationTest, IspGrowthSurvivesWireAndAnonymization) {
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg_,
                                        {.seed = 42, .enterprise_transit = false});
  const flow::Anonymizer anon({0xa, 0xb}, flow::AnonymizationMode::kFullHash);

  analysis::VolumeAggregator base(stats::Bucket::kHour);
  analysis::VolumeAggregator lockdown(stats::Bucket::kHour);
  feed(isp, TimeRange::week_of(Date(2020, 2, 19)), 400,
       base, &anon);
  feed(isp, TimeRange::week_of(Date(2020, 3, 18)), 400,
       lockdown, &anon);

  const double growth =
      100.0 * (lockdown.series().total() - base.series().total()) /
      base.series().total();
  EXPECT_GE(growth, 13.0) << "paper: 15-20% within a week";
  EXPECT_LE(growth, 28.0);
}

TEST_F(IntegrationTest, HypergiantShareAbout75PercentAtIsp) {
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg_,
                                        {.seed = 42, .enterprise_transit = false});
  const analysis::AsView view(reg_.trie());
  analysis::HypergiantAnalyzer hg(view,
                                  analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
  feed(isp, TimeRange::day_of(Date(2020, 2, 19)), 1500, hg);
  // Paper: the 15 hypergiants deliver ~75% of ISP traffic.
  EXPECT_GE(hg.hypergiant_share(), 0.62);
  EXPECT_LE(hg.hypergiant_share(), 0.85);
}

TEST_F(IntegrationTest, OtherAsesGrowMoreThanHypergiants) {
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg_,
                                        {.seed = 42, .enterprise_transit = false});
  const analysis::AsView view(reg_.trie());
  analysis::HypergiantAnalyzer hg(view,
                                  analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
  // Baseline week 3 (Jan 15-21) and lockdown week 13 (Mar 25-31).
  feed(isp, TimeRange::week_of(Date(2020, 1, 15)), 250, hg);
  feed(isp, TimeRange::week_of(Date(2020, 3, 25)), 250, hg);

  double hg_growth = 0, other_growth = 0;
  for (const auto& ws : hg.weekly_series(3)) {
    if (ws.week == 13 && ws.slice == analysis::DaySlice::kWorkdayWork) {
      hg_growth = ws.hypergiant;
      other_growth = ws.other;
    }
  }
  ASSERT_GT(hg_growth, 0.0);
  EXPECT_GT(hg_growth, 1.02) << "hypergiants grow too";
  EXPECT_GT(other_growth, hg_growth)
      << "paper: relative increase larger for other ASes (Fig 4)";
}

TEST_F(IntegrationTest, VpnDomainMethodSeesGrowthPortMethodFlat) {
  // Build the DNS corpus, find VPN candidates, wire them into the scenario.
  const auto corpus = dns::generate_corpus({.seed = 5, .organizations = 800});
  const auto psl = dns::PublicSuffixList::builtin();
  const auto candidates =
      dns::VpnCandidateFinder(psl).find(corpus.domains, corpus.dns);

  synth::ScenarioConfig cfg{.seed = 42};
  cfg.vpn_tls_server_ips.assign(candidates.candidate_ips.begin(),
                                candidates.candidate_ips.end());
  const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, reg_, cfg);

  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  analysis::VpnAnalyzer vpn(weeks, candidates.candidate_ips);
  feed(ixp, weeks[0], 800, vpn);
  feed(ixp, weeks[1], 800, vpn);

  const double domain_growth = vpn.working_hours_growth(analysis::VpnMethod::kDomain, 1);
  const double port_growth = vpn.working_hours_growth(analysis::VpnMethod::kPort, 1);
  EXPECT_GE(domain_growth, 120.0) << "paper: >200% domain-identified VPN growth";
  EXPECT_LE(port_growth, 60.0) << "paper: almost no change in port-based VPN";
  EXPECT_GT(domain_growth, port_growth * 2.5);
}

TEST_F(IntegrationTest, EduInOutRatioCollapses) {
  const auto edu = synth::build_vantage(synth::VantagePointId::kEdu, reg_,
                                        {.seed = 42});
  const analysis::AsView view(reg_.trie());
  analysis::AsnSet unis(edu.local_ases);
  analysis::EduAnalyzer analyzer(view, unis,
                                 analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));

  // Base week (Feb 27 - Mar 4) and online-lecturing week (Apr 16-22).
  feed(edu, TimeRange::week_of(Date(2020, 2, 27)), 600,
       analyzer);
  feed(edu, TimeRange::week_of(Date(2020, 4, 16)), 600,
       analyzer);

  const double base_ratio = analyzer.in_out_ratio(Date(2020, 3, 3));
  const double online_ratio = analyzer.in_out_ratio(Date(2020, 4, 21));
  EXPECT_GE(base_ratio, 8.0) << "paper: incoming up to 15x outgoing";
  EXPECT_LE(base_ratio, 22.0);
  EXPECT_LT(online_ratio, base_ratio * 0.6) << "ratio halves and keeps falling";

  // Volume collapse on workdays.
  const double drop = 100.0 *
                      (analyzer.daily_volume(Date(2020, 3, 3)) -
                       analyzer.daily_volume(Date(2020, 4, 21))) /
                      analyzer.daily_volume(Date(2020, 3, 3));
  EXPECT_GE(drop, 30.0);
  EXPECT_LE(drop, 65.0);
}

TEST_F(IntegrationTest, EduConnectionGrowthOrdering) {
  const auto edu = synth::build_vantage(synth::VantagePointId::kEdu, reg_,
                                        {.seed = 42});
  const analysis::AsView view(reg_.trie());
  analysis::EduAnalyzer analyzer(view, analysis::AsnSet(edu.local_ases),
                                 analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));

  const TimeRange before = TimeRange::week_of(Date(2020, 2, 27));
  const TimeRange after = TimeRange::week_of(Date(2020, 4, 16));
  feed(edu, before, 1200, analyzer);
  feed(edu, after, 1200, analyzer);

  using analysis::Direction;
  using analysis::EduClass;
  const double web = analyzer.median_growth(EduClass::kWeb, Direction::kIncoming,
                                            before, after);
  const double vpn = analyzer.median_growth(EduClass::kVpn, Direction::kIncoming,
                                            before, after);
  const double rdp = analyzer.median_growth(EduClass::kRemoteDesktop,
                                            Direction::kIncoming, before, after);
  const double ssh = analyzer.median_growth(EduClass::kSsh, Direction::kIncoming,
                                            before, after);
  // Paper §7: web 1.7x, VPN 4.8x, remote desktop 5.9x, SSH 9.1x. The
  // *ordering* and rough magnitudes must hold.
  EXPECT_GT(web, 1.2);
  EXPECT_LT(web, 2.6);
  EXPECT_GT(vpn, 3.0);
  EXPECT_GT(rdp, vpn * 0.9);
  EXPECT_GT(ssh, rdp * 0.9);
  EXPECT_GT(ssh, 5.0);

  // ~39% of flows cannot be oriented.
  EXPECT_GE(analyzer.undetermined_fraction(), 0.2);
  EXPECT_LE(analyzer.undetermined_fraction(), 0.55);

  // Incoming connections double; outgoing nearly halve (§7).
  const double in_growth = analyzer.median_growth(Direction::kIncoming, before, after);
  const double out_growth = analyzer.median_growth(Direction::kOutgoing, before, after);
  EXPECT_GE(in_growth, 1.5);
  EXPECT_LE(out_growth, 0.75);
}


TEST_F(IntegrationTest, UsAntiPatternEmailUpMessagingDown) {
  // §5: "While in Europe the usage of messaging applications soars ... the
  // opposite can be observed in the US with email growing and messaging
  // falling." Verified from collected flows at the IXP-US, stage-2 week.
  const auto us = synth::build_vantage(synth::VantagePointId::kIxpUs, reg_,
                                       {.seed = 42});
  const analysis::AsView view(reg_.trie());
  const auto classifier = analysis::AppClassifier::table1();
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 12)),
                                        TimeRange::week_of(Date(2020, 4, 23))};
  analysis::ClassHeatmap heatmap(classifier, view, weeks);
  for (const auto& w : weeks) feed(us, w, 700, heatmap);

  using synth::AppClass;
  const double email_s2 = heatmap.working_hours_growth(AppClass::kEmail, 2);
  const double messaging_s2 = heatmap.working_hours_growth(AppClass::kMessaging, 2);
  EXPECT_GT(email_s2, 30.0) << "US email grows";
  EXPECT_LT(messaging_s2, 0.0) << "US messaging falls";
  // Educational traffic declines in the US (§5).
  EXPECT_LT(heatmap.working_hours_growth(AppClass::kEducational, 2), -20.0);
  // VoD declines by stage 2 (traffic-engineering decision of a large AS).
  EXPECT_LT(heatmap.working_hours_growth(AppClass::kVod, 2), 5.0);
}

TEST_F(IntegrationTest, AppClassHeatmapDirections) {
  const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, reg_,
                                        {.seed = 42});
  const analysis::AsView view(reg_.trie());
  const auto classifier = analysis::AppClassifier::table1();
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  analysis::ClassHeatmap heatmap(classifier, view, weeks);
  feed(ixp, weeks[0], 700, heatmap);
  feed(ixp, weeks[1], 700, heatmap);

  using synth::AppClass;
  // Web conferencing: dramatic growth during business hours (paper: >200%,
  // clamped; allow sampling noise).
  EXPECT_GE(heatmap.working_hours_growth(AppClass::kWebConf, 1), 120.0);
  // Messaging soars in Europe.
  EXPECT_GE(heatmap.working_hours_growth(AppClass::kMessaging, 1), 80.0);
  // Email grows moderately.
  const double email = heatmap.working_hours_growth(AppClass::kEmail, 1);
  EXPECT_GE(email, 20.0);
  EXPECT_LE(email, 150.0);
  // Gaming grows.
  EXPECT_GE(heatmap.working_hours_growth(AppClass::kGaming, 1), 10.0);
}

}  // namespace
}  // namespace lockdown
