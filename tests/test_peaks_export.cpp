// Tests for the §9 peak/valley analyzer and the CSV export module.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "analysis/export.hpp"
#include "analysis/peaks.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

namespace lockdown::analysis {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;

// --- PeakAnalyzer --------------------------------------------------------------

stats::TimeSeries hourly_week(Date start, const std::function<double(int)>& fn) {
  stats::TimeSeries s(stats::Bucket::kHour);
  for (int h = 0; h < 168; ++h) {
    s.add(Timestamp::from_date(start).plus(h * 3600), fn(h));
  }
  return s;
}

TEST(PeakAnalyzer, StratifiesKnownSeries) {
  // 168 hours with values 1..168: exact order statistics.
  const auto series = hourly_week(Date(2020, 2, 19),
                                  [](int h) { return static_cast<double>(h + 1); });
  const auto p = PeakAnalyzer::profile(series, TimeRange::week_of(Date(2020, 2, 19)));
  EXPECT_DOUBLE_EQ(p.valley, 1.0);
  EXPECT_DOUBLE_EQ(p.peak, 168.0);
  EXPECT_DOUBLE_EQ(p.mean, 84.5);
  EXPECT_DOUBLE_EQ(p.p95, 160.0);           // values[floor(0.95*168)] = values[159]
  EXPECT_DOUBLE_EQ(p.busy_mean, 160.5);     // mean of 153..168
  EXPECT_DOUBLE_EQ(p.offpeak_mean, 21.5);   // mean of 1..42
}

TEST(PeakAnalyzer, ThrowsOnEmptyWeek) {
  const stats::TimeSeries empty(stats::Bucket::kHour);
  EXPECT_THROW(
      PeakAnalyzer::profile(empty, TimeRange::week_of(Date(2020, 2, 19))),
      std::invalid_argument);
}

TEST(PeakAnalyzer, DetectsValleyFilling) {
  // Base: strong diurnal swing. After: +60% valleys, +10% peak.
  const auto base_fn = [](int h) { return 100.0 + 100.0 * ((h % 24) >= 18); };
  const auto after_fn = [](int h) { return 160.0 + 110.0 * ((h % 24) >= 18); };
  auto series = hourly_week(Date(2020, 2, 19), base_fn);
  for (int h = 0; h < 168; ++h) {
    series.add(Timestamp::from_date(Date(2020, 3, 18)).plus(h * 3600), after_fn(h));
  }
  const auto shift = PeakAnalyzer::compare(series,
                                           TimeRange::week_of(Date(2020, 2, 19)),
                                           TimeRange::week_of(Date(2020, 3, 18)));
  EXPECT_NEAR(shift.valley_growth_pct(), 60.0, 1e-9);
  EXPECT_NEAR(shift.peak_growth_pct(), 35.0, 1e-9);  // 200 -> 270
  EXPECT_TRUE(shift.valleys_fill_faster());
  EXPECT_LT(shift.after_peak_to_mean(), shift.base_peak_to_mean());
}

TEST(PeakAnalyzer, ScenarioShowsValleyFilling) {
  // The §9 claim must hold on the calibrated ISP scenario end to end.
  const auto reg = synth::AsRegistry::create_default();
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, reg,
                                        {.seed = 42, .enterprise_transit = false});
  stats::TimeSeries hourly(stats::Bucket::kHour);
  for (const Date start : {Date(2020, 2, 19), Date(2020, 3, 18)}) {
    const TimeRange week = TimeRange::week_of(start);
    for (Timestamp t = week.begin; t < week.end; t = t.plus(3600)) {
      hourly.add(t, isp.model.total_expected(t));
    }
  }
  const auto shift = PeakAnalyzer::compare(hourly,
                                           TimeRange::week_of(Date(2020, 2, 19)),
                                           TimeRange::week_of(Date(2020, 3, 18)));
  EXPECT_TRUE(shift.valleys_fill_faster());
  EXPECT_GT(shift.offpeak_growth_pct(), shift.peak_growth_pct() + 3.0);
  EXPECT_LT(shift.peak_growth_pct(), shift.mean_growth_pct() + 10.0);
}

// --- CSV export ------------------------------------------------------------------

TEST(Export, TimeseriesTable) {
  stats::TimeSeries s(stats::Bucket::kDay);
  s.add(Timestamp::from_date(Date(2020, 3, 1)), 10.0);
  s.add(Timestamp::from_date(Date(2020, 3, 2)), 20.0);
  const auto table = timeseries_table(s, "bytes");
  EXPECT_EQ(table.rows(), 2u);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("timestamp,bytes"), std::string::npos);
  EXPECT_NE(csv.find("2020-03-01 00:00:00,10.000000"), std::string::npos);
}

TEST(Export, WeeklyTable) {
  const auto table = weekly_table({{3, 1.0}, {12, 1.22}});
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(table.to_csv().find("12,1.220000"), std::string::npos);
}

TEST(Export, HeatmapTableMasksEarlyMorning) {
  const auto reg = synth::AsRegistry::create_default();
  const AsView view(reg.trie());
  const auto classifier = AppClassifier::table1();
  const std::vector<TimeRange> weeks = {TimeRange::week_of(Date(2020, 2, 20)),
                                        TimeRange::week_of(Date(2020, 3, 19))};
  ClassHeatmap heatmap(classifier, view, weeks);
  flow::FlowRecord r;
  r.src_addr = net::Ipv4Address(10, 0, 0, 1);
  r.dst_addr = net::Ipv4Address(10, 0, 0, 2);
  r.src_port = 50000;
  r.dst_port = 993;
  r.protocol = flow::IpProtocol::kTcp;
  r.bytes = 100;
  r.first = weeks[0].begin.plus(12 * 3600);
  add_record(heatmap, r, &reg.trie());

  const auto table = heatmap_table(heatmap, AppClass::kEmail, 1);
  EXPECT_EQ(table.rows(), 168u);
  const auto csv = table.to_csv();
  // Slot 3 (03:00 Thursday) is masked -> empty fields.
  EXPECT_NE(csv.find("\n3,,\n"), std::string::npos);
}

TEST(Export, WriteCsvRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "lockdown_export_test.csv").string();
  util::Table t({"a", "b"});
  t.add_row({"1", "2"});
  ASSERT_EQ(write_csv(t, path), "");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  const auto n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "a,b\n1,2\n");
  EXPECT_NE(write_csv(t, "/nonexistent-dir-xyz/file.csv"), "");
}

}  // namespace
}  // namespace lockdown::analysis
