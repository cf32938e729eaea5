// Figure 11: "EDU: Traffic volume & ratio (1) before, (2) just after, and
// (3) well after the lockdown."
//
//  (a) normalized daily volume for the base week (Feb 27 - Mar 4), the
//      transition week (Mar 12-18) and the online-lecturing week (Apr 16-22);
//  (b) ingress vs egress traffic ratio for the same weeks.
#include "analysis/edu.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

const struct {
  const char* label;
  Date start;
} kWeeks[] = {{"base (Feb 27-Mar 4)", Date(2020, 2, 27)},
              {"transition (Mar 12-18)", Date(2020, 3, 12)},
              {"online-lecturing (Apr 16-22)", Date(2020, 4, 16)}};

void print_reproduction() {
  std::cout << "=== Figure 11: the EDU metropolitan network ===\n"
            << "(16 universities; weeks run Thu..Wed like the paper's panels)\n\n";

  const auto edu = synth::build_vantage(VantagePointId::kEdu, registry(),
                                        {.seed = 42});
  const analysis::AsView view(registry().trie());
  std::vector<TimeRange> weeks;
  for (const auto& w : kWeeks) weeks.push_back(TimeRange::week_of(w.start));
  const auto analyzer = scan(edu, weeks, 800, [&] {
    return analysis::EduAnalyzer(view, analysis::AsnSet(edu.local_ases),
                                 analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
  });

  // Normalize daily volumes by the smallest observed daily volume.
  double min_volume = 0.0;
  bool first = true;
  for (const auto& w : kWeeks) {
    for (int d = 0; d < 7; ++d) {
      const double v = analyzer.daily_volume(w.start.plus_days(d));
      if (first || v < min_volume) min_volume = v;
      first = false;
    }
  }

  std::cout << "--- Fig 11a: normalized daily traffic volume ---\n";
  util::Table vol({"day", kWeeks[0].label, kWeeks[1].label, kWeeks[2].label});
  const char* day_names[] = {"Thu", "Fri", "Sat", "Sun", "Mon", "Tue", "Wed"};
  for (int d = 0; d < 7; ++d) {
    vol.add_row({day_names[d],
                 fmt(analyzer.daily_volume(kWeeks[0].start.plus_days(d)) / min_volume),
                 fmt(analyzer.daily_volume(kWeeks[1].start.plus_days(d)) / min_volume),
                 fmt(analyzer.daily_volume(kWeeks[2].start.plus_days(d)) / min_volume)});
  }
  std::cout << vol << "\n";

  std::cout << "--- Fig 11b: ingress vs egress traffic ratio ---\n";
  util::Table ratio({"day", kWeeks[0].label, kWeeks[1].label, kWeeks[2].label});
  for (int d = 0; d < 7; ++d) {
    ratio.add_row({day_names[d],
                   fmt(analyzer.in_out_ratio(kWeeks[0].start.plus_days(d)), 1),
                   fmt(analyzer.in_out_ratio(kWeeks[1].start.plus_days(d)), 1),
                   fmt(analyzer.in_out_ratio(kWeeks[2].start.plus_days(d)), 1)});
  }
  std::cout << ratio << "\n";

  // Section 7 numbers.
  const double base_tue = analyzer.daily_volume(Date(2020, 3, 3));
  const double online_tue = analyzer.daily_volume(Date(2020, 4, 21));
  std::cout << "Workday volume drop (Tue, base -> online): "
            << pct(100 * (online_tue - base_tue) / base_tue)
            << "  (paper: up to -55% on Tue/Wed)\n";
  const double base_sat = analyzer.daily_volume(Date(2020, 2, 29));
  const double online_sat = analyzer.daily_volume(Date(2020, 4, 18));
  std::cout << "Weekend volume change (Sat):               "
            << pct(100 * (online_sat - base_sat) / base_sat)
            << "  (paper: +14% Sat, +4% Sun)\n";
  std::cout << "In/out ratio, base Tue vs online Tue:      "
            << fmt(analyzer.in_out_ratio(Date(2020, 3, 3)), 1) << " -> "
            << fmt(analyzer.in_out_ratio(Date(2020, 4, 21)), 1)
            << "  (paper: up to 15x before, halves in transition, smallest\n"
            << "   during online lecturing)\n\n";
}

void BM_Fig11_EduPipeline(benchmark::State& state) {
  bench_pipeline_day(state, VantagePointId::kEdu);
}
BENCHMARK(BM_Fig11_EduPipeline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
