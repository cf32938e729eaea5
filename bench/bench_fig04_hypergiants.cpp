// Figure 4: "ISP-CE: Normalized daily traffic growth for hypergiants vs
// other ASes across time" -- per calendar week, four time-of-day/day-type
// slices, each normalized by its calendar-week-3 value.
#include "analysis/hypergiants.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Figure 4: hypergiants vs other ASes at ISP-CE ===\n"
            << "(weekly traffic per slice, normalized to calendar week 3)\n\n";

  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const analysis::AsView view(registry().trie());
  const analysis::AsnSet hypergiants(synth::AsRegistry::hypergiant_asns());
  const auto analyzer =
      scan(isp,
           {TimeRange{Timestamp::from_date(Date(2020, 1, 8)),
                      Timestamp::from_date(Date(2020, 5, 6))}},
           200, [&] { return analysis::HypergiantAnalyzer(view, hypergiants); });

  const auto series = analyzer.weekly_series(3);
  for (const auto slice :
       {analysis::DaySlice::kWorkdayWork, analysis::DaySlice::kWorkdayEvening,
        analysis::DaySlice::kWeekendWork, analysis::DaySlice::kWeekendEvening}) {
    util::Table table({"week", "hypergiants", "other ASes"});
    for (const auto& ws : series) {
      if (ws.slice != slice) continue;
      table.add_row({std::to_string(ws.week), fmt(ws.hypergiant), fmt(ws.other)});
    }
    std::cout << to_string(slice) << ":\n" << table << "\n";
  }

  // Quantitative takeaways (section 3.2).
  double hg12 = 0, ot12 = 0, hg13 = 0, ot13 = 0;
  for (const auto& ws : series) {
    if (ws.slice != analysis::DaySlice::kWorkdayWork) continue;
    if (ws.week == 12) {
      hg12 = ws.hypergiant;
      ot12 = ws.other;
    }
    if (ws.week == 13) {
      hg13 = ws.hypergiant;
      ot13 = ws.other;
    }
  }
  std::cout << "Week 12 (lockdown start), workday work-hours: hypergiants "
            << fmt(hg12) << "x vs others " << fmt(ot12) << "x\n";
  std::cout << "Week 13: hypergiants " << fmt(hg13) << "x vs others " << fmt(ot13)
            << "x\n";
  std::cout << "(paper: the other-ASes curve dominates the hypergiants' after\n"
            << " the lockdown; hypergiants stabilize/decline week 12->13 with\n"
            << " the video-resolution reduction)\n\n";
  std::cout << "Hypergiant share of total bytes: "
            << fmt(100 * analyzer.hypergiant_share(), 1)
            << "%  (paper: ~75%, Table 2 / section 3.2)\n\n";
}

void BM_Fig4_HypergiantAttribution(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(isp.model, registry(),
                                     {.connections_per_hour = 400});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 25)));
  const analysis::AsView view(registry().trie());
  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  for (auto _ : state) {
    analysis::HypergiantAnalyzer analyzer(
        view, analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
    analyzer.add_batch(records, cols);
    benchmark::DoNotOptimize(analyzer.hypergiant_share());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Fig4_HypergiantAttribution)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
