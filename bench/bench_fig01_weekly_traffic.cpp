// Figure 1: "Traffic changes during 2020 at multiple vantage points --
// daily traffic averaged per week, normalized by 3rd week of Jan."
//
// Reproduces the weekly series for the six vantage points of the paper's
// headline figure: ISP-CE, IXP-CE, IXP-SE, IXP-US, the mobile operator and
// the roaming IPX, for calendar weeks 1-18 (Jan 1 - May 5) plus the
// following weeks through mid-May.
#include "analysis/volume.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

constexpr VantagePointId kVantages[] = {
    VantagePointId::kIspCe,    VantagePointId::kIxpCe, VantagePointId::kIxpSe,
    VantagePointId::kIxpUs,    VantagePointId::kMobileCe,
    VantagePointId::kIpxCe,
};

void print_reproduction() {
  std::cout << "=== Figure 1: weekly traffic normalized to calendar week 3 ===\n"
            << "(daily traffic averaged per week; weeks 1-19 of 2020)\n\n";

  const TimeRange full{net::Timestamp::from_date(Date(2020, 1, 1)),
                       net::Timestamp::from_date(Date(2020, 5, 18))};

  std::vector<std::string> header = {"week"};
  std::vector<std::vector<std::pair<unsigned, double>>> series;
  for (const auto id : kVantages) {
    const auto vp = synth::build_vantage(id, registry(),
                                         {.seed = 42, .enterprise_transit = false});
    header.push_back(to_string(id));
    const auto agg = scan(vp, {full}, 180, [] {
      return analysis::VolumeAggregator(stats::Bucket::kDay);
    });
    series.push_back(analysis::weekly_normalized(agg.series(), 3));
  }

  util::Table table(header);
  const std::size_t weeks = series.front().size();
  for (std::size_t w = 0; w < weeks; ++w) {
    std::vector<std::string> row = {std::to_string(series.front()[w].first)};
    for (const auto& s : series) row.push_back(fmt(s[w].second));
    table.add_row(std::move(row));
  }
  std::cout << table;

  // The paper's headline: 15-20% growth within a week of the lockdowns
  // (week 11 -> 12/13 in Europe), persistent at the IXPs, decaying at the
  // ISP, collapsing for roaming.
  auto at_week = [&](std::size_t vantage, unsigned week) {
    for (const auto& [w, v] : series[vantage]) {
      if (w == week) return v;
    }
    return 0.0;
  };
  std::cout << "\nHeadline checks (paper section 1 / section 3.1):\n";
  std::cout << "  ISP-CE  week 13: " << pct(100 * (at_week(0, 13) - 1))
            << "  (paper: >+20% after lockdown)\n";
  std::cout << "  ISP-CE  week 19: " << pct(100 * (at_week(0, 19) - 1))
            << "  (paper: ~+6% residual in May)\n";
  std::cout << "  IXP-CE  week 13: " << pct(100 * (at_week(1, 13) - 1))
            << "  (paper: ~+30%)\n";
  std::cout << "  IXP-CE  week 19: " << pct(100 * (at_week(1, 19) - 1))
            << "  (paper: ~+20% persists)\n";
  std::cout << "  IXP-SE  week 13: " << pct(100 * (at_week(2, 13) - 1))
            << "  (paper: ~+12%)\n";
  std::cout << "  IXP-US  week 12: " << pct(100 * (at_week(3, 12) - 1))
            << "  (paper: ~+2%, trails Europe)\n";
  std::cout << "  Roaming week 14: " << pct(100 * (at_week(5, 14) - 1))
            << "  (paper: roaming collapses to ~half)\n\n";
}

void BM_Fig1_FullTimelineIsp(benchmark::State& state) {
  bench_pipeline_day(state, VantagePointId::kIspCe);
}
BENCHMARK(BM_Fig1_FullTimelineIsp)->Unit(benchmark::kMillisecond);

void BM_Fig1_WeeklyNormalization(benchmark::State& state) {
  const auto vp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                       {.seed = 42, .enterprise_transit = false});
  const auto agg =
      scan(vp,
           {TimeRange{net::Timestamp::from_date(Date(2020, 1, 1)),
                      net::Timestamp::from_date(Date(2020, 2, 15))}},
           180, [] { return analysis::VolumeAggregator(stats::Bucket::kDay); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::weekly_normalized(agg.series(), 3));
  }
}
BENCHMARK(BM_Fig1_WeeklyNormalization)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
