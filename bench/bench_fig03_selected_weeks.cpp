// Figure 3: "Time series of normalized aggregated traffic volume per hour
// for ISP-CE and three IXPs for four selected weeks (before, just after,
// after, well after lockdown (base/stage1/stage2/stage3))."
//
//  (a) ISP-CE: hourly series per week, normalized by the minimum across
//      the four weeks (printed as per-day-of-week averages for legibility).
//  (b) IXPs: workday and weekend hourly averages per week.
#include "analysis/volume.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

struct Week {
  const char* label;
  Date start;
};

const Week kIspWeeks[] = {{"base (Feb 19-26)", Date(2020, 2, 19)},
                          {"stage1 (Mar 18-25)", Date(2020, 3, 18)},
                          {"stage2 (Apr 22-29)", Date(2020, 4, 22)},
                          {"stage3 (May 10-17)", Date(2020, 5, 10)}};

void print_isp() {
  std::cout << "--- Fig 3a: ISP-CE normalized hourly volume (per week) ---\n";
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  std::vector<stats::TimeSeries> weeks;
  double min_val = 0.0;
  bool first = true;
  for (const Week& w : kIspWeeks) {
    const auto agg = scan(isp, {TimeRange::week_of(w.start)}, 300, [] {
      return analysis::VolumeAggregator(stats::Bucket::kHour);
    });
    const double m = agg.series().min_value();
    if (first || m < min_val) min_val = m;
    first = false;
    weeks.push_back(agg.series());
  }

  // Summaries per week: min/mean/max normalized by the global minimum, and
  // the weekday-evening vs weekday-morning contrast that flattens.
  util::Table table({"week", "min", "mean", "max", "morning(10h)/evening(21h)"});
  for (std::size_t i = 0; i < weeks.size(); ++i) {
    double morning = 0, evening = 0;
    int workdays = 0;
    for (int d = 0; d < 7; ++d) {
      const Date day = kIspWeeks[i].start.plus_days(d);
      if (day.is_weekend_day()) continue;
      morning += weeks[i].at(Timestamp::from_date(day, 10));
      evening += weeks[i].at(Timestamp::from_date(day, 21));
      ++workdays;
    }
    table.add_row({kIspWeeks[i].label, fmt(weeks[i].min_value() / min_val),
                   fmt(weeks[i].total() / 168.0 / min_val),
                   fmt(weeks[i].max_value() / min_val),
                   fmt(morning / evening)});
    (void)workdays;
  }
  std::cout << table;
  std::cout << "(paper: traffic increases much earlier in the day after the\n"
            << " lockdown -- the morning/evening ratio rises towards 1)\n\n";
}

void print_ixps() {
  std::cout << "--- Fig 3b: IXPs, workday/weekend hourly averages per week ---\n";
  const VantagePointId ixps[] = {VantagePointId::kIxpCe, VantagePointId::kIxpSe,
                                 VantagePointId::kIxpUs};
  for (const auto id : ixps) {
    const auto vp = synth::build_vantage(id, registry(), {.seed = 42});
    util::Table table({"week", "workday avg", "weekend avg", "min", "max"});
    double norm = 0.0;
    bool first = true;
    std::vector<std::array<double, 4>> rows;
    for (const Week& w : kIspWeeks) {
      const auto agg = scan(vp, {TimeRange::week_of(w.start)}, 250, [] {
        return analysis::VolumeAggregator(stats::Bucket::kHour);
      });
      double wd = 0, we = 0;
      int wd_n = 0, we_n = 0;
      for (const auto& [ts, v] : agg.series().points()) {
        if (net::is_weekend(ts.weekday())) {
          we += v;
          ++we_n;
        } else {
          wd += v;
          ++wd_n;
        }
      }
      const double min_v = agg.series().min_value();
      if (first || min_v < norm) norm = min_v;
      first = false;
      rows.push_back({wd / wd_n, we / we_n, min_v, agg.series().max_value()});
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      table.add_row({kIspWeeks[i].label, fmt(rows[i][0] / norm),
                     fmt(rows[i][1] / norm), fmt(rows[i][2] / norm),
                     fmt(rows[i][3] / norm)});
    }
    std::cout << to_string(id) << ":\n" << table << "\n";
  }
  std::cout << "(paper: at the IXPs both peak and minimum levels increase;\n"
            << " the IXP-US barely changes in March and catches up in April)\n\n";
}

void print_reproduction() {
  std::cout << "=== Figure 3: four selected weeks around the lockdown ===\n\n";
  print_isp();
  print_ixps();
}

void BM_Fig3_IxpPipeline(benchmark::State& state) {
  bench_pipeline_day(state, VantagePointId::kIxpCe);
}
BENCHMARK(BM_Fig3_IxpPipeline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
