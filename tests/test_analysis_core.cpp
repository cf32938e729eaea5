// Tests for volume aggregation, weekly normalization, the Fig 2 pattern
// classifier, hypergiant decomposition and link utilization.
#include <gtest/gtest.h>

#include "analysis/hypergiants.hpp"
#include "analysis/link_utilization.hpp"
#include "analysis/pattern.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "filter/plan.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

namespace lockdown::analysis {
namespace {

using net::Asn;
using net::Date;
using net::TimeRange;
using net::Timestamp;

flow::FlowRecord make_flow(Timestamp t, std::uint64_t bytes, Asn src, Asn dst,
                           std::uint16_t dst_port = 443) {
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(10, 0, 0, 1);
  r.dst_addr = net::Ipv4Address(10, 0, 0, 2);
  r.src_port = 50000;
  r.dst_port = dst_port;
  r.bytes = bytes;
  r.packets = 1;
  r.first = t;
  r.last = t;
  r.src_as = src;
  r.dst_as = dst;
  return r;
}

TEST(VolumeAggregator, FilterAndBucketing) {
  const auto big = filter::CompiledFilter::compile("bytes > 100");
  VolumeAggregator all(stats::Bucket::kHour);
  VolumeAggregator only_big(stats::Bucket::kHour, &big);
  const Timestamp t = Timestamp::from_date(Date(2020, 2, 19), 10);
  for (const std::uint64_t b : {50ull, 200ull, 300ull}) {
    add_record(all, make_flow(t, b, Asn(1), Asn(2)));
    add_record(only_big, make_flow(t, b, Asn(1), Asn(2)));
  }
  EXPECT_DOUBLE_EQ(all.series().at(t), 550.0);
  EXPECT_DOUBLE_EQ(only_big.series().at(t), 500.0);
  EXPECT_EQ(all.records(), 3u);
  EXPECT_EQ(only_big.records(), 2u);
}

TEST(WeeklyNormalized, BaselineWeekIsOne) {
  stats::TimeSeries daily(stats::Bucket::kDay);
  // Weeks 1-4 with volumes 100, 110, 100, 150 per day.
  const double per_week[] = {100, 110, 100, 150};
  for (int d = 0; d < 28; ++d) {
    daily.add(Timestamp::from_date(Date(2020, 1, 1).plus_days(d)), per_week[d / 7]);
  }
  const auto weekly = weekly_normalized(daily, 3);
  ASSERT_EQ(weekly.size(), 4u);
  EXPECT_DOUBLE_EQ(weekly[2].second, 1.0);
  EXPECT_DOUBLE_EQ(weekly[0].second, 1.0);
  EXPECT_DOUBLE_EQ(weekly[3].second, 1.5);
  EXPECT_NEAR(weekly[1].second, 1.1, 1e-12);
}

TEST(WeeklyNormalized, PartialWeeksUseDailyAverages) {
  stats::TimeSeries daily(stats::Bucket::kDay);
  for (int d = 14; d < 21; ++d) {  // week 3 complete
    daily.add(Timestamp::from_date(Date(2020, 1, 1).plus_days(d)), 100.0);
  }
  // Week 4: only two days of data, same daily rate.
  daily.add(Timestamp::from_date(Date(2020, 1, 22)), 100.0);
  daily.add(Timestamp::from_date(Date(2020, 1, 23)), 100.0);
  const auto weekly = weekly_normalized(daily, 3);
  ASSERT_EQ(weekly.size(), 2u);
  EXPECT_DOUBLE_EQ(weekly[1].second, 1.0);  // not 2/7
}

TEST(WeeklyNormalized, ThrowsWithoutBaseline) {
  stats::TimeSeries daily(stats::Bucket::kDay);
  daily.add(Timestamp::from_date(Date(2020, 1, 1)), 5.0);
  EXPECT_THROW(weekly_normalized(daily, 3), std::invalid_argument);
}

// --- PatternClassifier -------------------------------------------------------

class PatternTest : public ::testing::Test {
 protected:
  /// Hourly series following the scenario's residential shapes, with the
  /// lockdown morph applied from `morph_from`.
  static stats::TimeSeries synthetic_series(Date from, Date to, Date morph_from) {
    stats::TimeSeries hourly(stats::Bucket::kHour);
    const auto& wd = synth::DiurnalProfile::residential_workday();
    const auto& we = synth::DiurnalProfile::residential_weekend();
    for (Date d = from; d < to; d = d.plus_days(1)) {
      const bool weekend = d.is_weekend_day();
      const bool morphed = !(d < morph_from);
      for (unsigned h = 0; h < 24; ++h) {
        const double v = (weekend || morphed) ? we.value(h) : wd.value(h);
        hourly.add(Timestamp::from_date(d, h), v * 1000.0);
      }
    }
    return hourly;
  }
};

TEST_F(PatternTest, RejectsBadBinSize) {
  EXPECT_THROW(PatternClassifier(5), std::invalid_argument);
  EXPECT_THROW(PatternClassifier(0), std::invalid_argument);
  EXPECT_NO_THROW(PatternClassifier(6));
}

TEST_F(PatternTest, TrainRequiresBothClasses) {
  PatternClassifier c(6);
  stats::TimeSeries hourly(stats::Bucket::kHour);
  // Only two workdays of data.
  for (unsigned h = 0; h < 48; ++h) {
    hourly.add(Timestamp::from_date(Date(2020, 2, 17)).plus(h * 3600), 1.0);
  }
  EXPECT_THROW(c.train(hourly, TimeRange::week_of(Date(2020, 2, 17))),
               std::invalid_argument);
}

TEST_F(PatternTest, ClassifiesPrePostLockdownCorrectly) {
  const auto series = synthetic_series(Date(2020, 2, 1), Date(2020, 4, 30),
                                       Date(2020, 3, 16));
  PatternClassifier classifier(6);
  classifier.train(series, TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                     Timestamp::from_date(Date(2020, 2, 29))});

  const auto days = classifier.classify(
      series, TimeRange{Timestamp::from_date(Date(2020, 3, 1)),
                        Timestamp::from_date(Date(2020, 4, 30))});
  ASSERT_FALSE(days.empty());
  std::size_t pre_agree = 0, pre_total = 0, post_weekendlike = 0, post_total = 0;
  for (const auto& day : days) {
    if (day.date < Date(2020, 3, 16)) {
      ++pre_total;
      if (day.agrees()) ++pre_agree;
    } else {
      ++post_total;
      if (day.classified == DayPattern::kWeekendLike) ++post_weekendlike;
    }
  }
  // Before the morph: classification matches the actual day type.
  EXPECT_EQ(pre_agree, pre_total);
  // After: "almost all days are classified as weekend-like" (§1).
  EXPECT_EQ(post_weekendlike, post_total);
}

TEST_F(PatternTest, EndToEndOnScenarioModel) {
  // Full-stack check on model expectations of the ISP: train on February,
  // classify January-May.
  const auto reg = synth::AsRegistry::create_default();
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg,
                                        {.seed = 42, .enterprise_transit = false});
  stats::TimeSeries hourly(stats::Bucket::kHour);
  for (Timestamp t = Timestamp::from_date(Date(2020, 2, 1));
       t < Timestamp::from_date(Date(2020, 5, 11)); t = t.plus(3600)) {
    hourly.add(t, isp.model.total_expected(t));
  }

  PatternClassifier classifier(6);
  classifier.train(hourly, TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                     Timestamp::from_date(Date(2020, 2, 29))});
  const auto days = classifier.classify(
      hourly, TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                        Timestamp::from_date(Date(2020, 5, 11))});

  std::size_t feb_workday_agree = 0, feb_workdays = 0;
  std::size_t apr_weekendlike = 0, apr_days = 0;
  for (const auto& day : days) {
    if (day.date < Date(2020, 3, 1) && !day.actual_weekend) {
      ++feb_workdays;
      if (day.classified == DayPattern::kWorkdayLike) ++feb_workday_agree;
    }
    if (!(day.date < Date(2020, 3, 25)) && day.date < Date(2020, 4, 25)) {
      ++apr_days;
      if (day.classified == DayPattern::kWeekendLike) ++apr_weekendlike;
    }
  }
  ASSERT_GT(feb_workdays, 10u);
  ASSERT_GT(apr_days, 20u);
  EXPECT_GE(feb_workday_agree * 100, feb_workdays * 90);
  EXPECT_GE(apr_weekendlike * 100, apr_days * 85) << "lockdown days weekend-like";
}

// --- HypergiantAnalyzer ------------------------------------------------------

class HypergiantTest : public ::testing::Test {
 protected:
  HypergiantTest()
      : reg_(synth::AsRegistry::create_default()), view_(reg_.trie()),
        analyzer_(view_, AsnSet(synth::AsRegistry::hypergiant_asns())) {}

  void add(const flow::FlowRecord& r) { add_record(analyzer_, r, &reg_.trie()); }

  synth::AsRegistry reg_;
  AsView view_;
  HypergiantAnalyzer analyzer_;
};

TEST_F(HypergiantTest, ShareAndPerAsAttribution) {
  const Timestamp t = Timestamp::from_date(Date(2020, 1, 15), 12);
  // 3 hypergiant flows of 100, 1 other flow of 100.
  add(make_flow(t, 100, Asn(15169), Asn(64700)));
  add(make_flow(t, 100, Asn(64700), Asn(2906)));  // dst is HG
  add(make_flow(t, 100, Asn(20940), Asn(64700)));
  add(make_flow(t, 100, Asn(65001), Asn(64700)));
  EXPECT_DOUBLE_EQ(analyzer_.hypergiant_share(), 0.75);
  const auto per_hg = analyzer_.per_hypergiant_bytes();
  EXPECT_DOUBLE_EQ(per_hg.at(Asn(15169)), 100.0);
  EXPECT_DOUBLE_EQ(per_hg.at(Asn(2906)), 100.0);
}

TEST_F(HypergiantTest, WeeklySlicesNormalizeByBaseline) {
  // Baseline week 3 (Jan 15 is a Wednesday): workday work-hours slice.
  add(make_flow(Timestamp::from_date(Date(2020, 1, 15), 10), 100,
                Asn(15169), Asn(64700)));
  add(make_flow(Timestamp::from_date(Date(2020, 1, 15), 10), 100,
                Asn(65001), Asn(64700)));
  // Week 12 (Mar 18, Wednesday): hypergiants 1.5x, others 2x.
  add(make_flow(Timestamp::from_date(Date(2020, 3, 18), 10), 150,
                Asn(15169), Asn(64700)));
  add(make_flow(Timestamp::from_date(Date(2020, 3, 18), 10), 200,
                Asn(65001), Asn(64700)));

  const auto series = analyzer_.weekly_series(3);
  bool found = false;
  for (const auto& ws : series) {
    if (ws.week == 12 && ws.slice == DaySlice::kWorkdayWork) {
      EXPECT_DOUBLE_EQ(ws.hypergiant, 1.5);
      EXPECT_DOUBLE_EQ(ws.other, 2.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(HypergiantTest, NightHoursExcludedFromSlices) {
  add(make_flow(Timestamp::from_date(Date(2020, 1, 15), 3), 100,
                Asn(15169), Asn(64700)));
  EXPECT_THROW(analyzer_.weekly_series(3), std::invalid_argument);
  // ...but the share still counts night traffic.
  EXPECT_DOUBLE_EQ(analyzer_.hypergiant_share(), 1.0);
}

// --- LinkUtilization ---------------------------------------------------------

TEST(LinkUtilization, EcdfShiftsRight) {
  const auto tl = synth::EpidemicTimeline::for_region(synth::Region::kCentralEurope);
  const synth::IxpMemberModel model({.seed = 3, .members = 300}, tl);
  const auto base = LinkUtilizationAnalyzer::analyze(model.simulate_day(Date(2020, 2, 19)));
  const auto stage2 =
      LinkUtilizationAnalyzer::analyze(model.simulate_day(Date(2020, 4, 22)));

  const auto shift = LinkUtilizationAnalyzer::median_shift(base, stage2);
  EXPECT_GT(shift.min_shift, 0.0);
  EXPECT_GT(shift.avg_shift, 0.0);
  EXPECT_GT(shift.max_shift, 0.0);

  // ECDF of stage2 lies at or below the base curve on the grid (shifted
  // right means lower CDF values at the same utilization).
  const auto grid = LinkUtilizationAnalyzer::utilization_grid();
  double base_sum = 0, stage_sum = 0;
  for (const double x : grid) {
    base_sum += base.avg_util.at(x);
    stage_sum += stage2.avg_util.at(x);
  }
  EXPECT_LT(stage_sum, base_sum);
}

}  // namespace
}  // namespace lockdown::analysis
