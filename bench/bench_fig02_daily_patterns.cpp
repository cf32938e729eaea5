// Figure 2: "Drastic shift in Internet usage patterns for times of day and
// weekends/workdays."
//
//  (a) ISP-CE hourly traffic for Wed Feb 19, Sat Feb 22 and Wed Mar 25
//      (lockdown), normalized to the day maximum.
//  (b/c) Workday-like vs weekend-like classification of every day Jan 1 -
//      May 11 at ISP-CE and IXP-CE, trained on February at 6-hour
//      aggregation.
#include "analysis/pattern.hpp"
#include "analysis/volume.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

void print_fig2a(const stats::TimeSeries& hourly) {
  std::cout << "--- Fig 2a: ISP-CE hourly pattern (normalized to day max) ---\n";
  util::Table table({"hour", "Wed Feb 19", "Sat Feb 22", "Wed Mar 25 (lockdown)"});
  const Date days[] = {Date(2020, 2, 19), Date(2020, 2, 22), Date(2020, 3, 25)};
  double day_max[3] = {0, 0, 0};
  for (int d = 0; d < 3; ++d) {
    for (unsigned h = 0; h < 24; ++h) {
      day_max[d] = std::max(day_max[d], hourly.at(Timestamp::from_date(days[d], h)));
    }
  }
  for (unsigned h = 0; h < 24; ++h) {
    std::vector<std::string> row = {std::to_string(h)};
    for (int d = 0; d < 3; ++d) {
      row.push_back(fmt(hourly.at(Timestamp::from_date(days[d], h)) / day_max[d]));
    }
    table.add_row(std::move(row));
  }
  std::cout << table << "\n";
}

void print_fig2bc(const char* name, const stats::TimeSeries& hourly) {
  analysis::PatternClassifier classifier(6);
  classifier.train(hourly, TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                     Timestamp::from_date(Date(2020, 2, 29))});
  const auto days = classifier.classify(
      hourly, TimeRange{Timestamp::from_date(Date(2020, 1, 1)),
                        Timestamp::from_date(Date(2020, 5, 12))});

  std::cout << "--- Fig 2" << (name == std::string("ISP-CE") ? 'b' : 'c') << ": "
            << name << " day classification (B=agrees, O=disagrees) ---\n";
  std::cout << "Legend per day: W=classified workday-like, E=weekend-like;\n"
            << "lowercase means the classification disagrees with the actual day.\n";
  Date month_start(2020, 1, 1);
  std::string line;
  for (const auto& day : days) {
    if (day.date.month() != month_start.month()) {
      std::cout << "  " << month_start.year() << "-"
                << (month_start.month() < 10 ? "0" : "")
                << month_start.month() << ": " << line << "\n";
      line.clear();
      month_start = day.date;
    }
    const char symbol = day.classified == analysis::DayPattern::kWeekendLike ? 'E' : 'W';
    line += day.agrees() ? symbol : static_cast<char>(symbol + 32);
  }
  std::cout << "  " << month_start.year() << "-"
            << (month_start.month() < 10 ? "0" : "") << month_start.month()
            << ": " << line << "\n";

  std::size_t pre_agree = 0, pre_total = 0, post_weekend = 0, post_total = 0;
  for (const auto& day : days) {
    if (day.date < Date(2020, 3, 16)) {
      ++pre_total;
      pre_agree += day.agrees() ? 1 : 0;
    } else {
      ++post_total;
      post_weekend += day.classified == analysis::DayPattern::kWeekendLike ? 1 : 0;
    }
  }
  std::cout << "Before Mar 16: " << pre_agree << "/" << pre_total
            << " days classified as their actual type\n";
  std::cout << "From Mar 16:   " << post_weekend << "/" << post_total
            << " days classified weekend-like"
            << "  (paper: almost all days weekend-like)\n\n";
}

void print_reproduction() {
  std::cout << "=== Figure 2: time-of-day and workday/weekend pattern shifts ===\n\n";
  const TimeRange full{Timestamp::from_date(Date(2020, 1, 1)),
                       Timestamp::from_date(Date(2020, 5, 12))};

  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const auto hourly = [] { return analysis::VolumeAggregator(stats::Bucket::kHour); };
  const auto isp_agg = scan(isp, {full}, 220, hourly);
  print_fig2a(isp_agg.series());
  print_fig2bc("ISP-CE", isp_agg.series());

  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                        {.seed = 42});
  const auto ixp_agg = scan(ixp, {full}, 220, hourly);
  print_fig2bc("IXP-CE", ixp_agg.series());
}

void BM_Fig2_TrainAndClassify(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const auto agg =
      scan(isp,
           {TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                      Timestamp::from_date(Date(2020, 4, 1))}},
           200, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); });
  for (auto _ : state) {
    analysis::PatternClassifier classifier(6);
    classifier.train(agg.series(), TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                             Timestamp::from_date(Date(2020, 2, 29))});
    benchmark::DoNotOptimize(classifier.classify(
        agg.series(), TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                Timestamp::from_date(Date(2020, 4, 1))}));
  }
}
BENCHMARK(BM_Fig2_TrainAndClassify)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
