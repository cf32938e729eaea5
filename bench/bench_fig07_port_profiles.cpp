// Figure 7: "ISP-CE and IXP-CE traffic by top application ports:
// normalized aggregated traffic volume per hour for three weeks, grouped by
// workday and weekend. We omit TCP/80 and TCP/443 traffic for readability."
//
// For each vantage point: the top 3-12 service ports by volume across the
// three analysis weeks, each port's workday/weekend diurnal profile per
// week (normalized to the port's maximum over all weeks), and the per-port
// growth summaries the paper calls out in section 4.
#include "analysis/ports.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void analyze_vantage(VantagePointId id, const std::vector<Date>& week_starts) {
  const auto vp = synth::build_vantage(id, registry(),
                                       {.seed = 42, .enterprise_transit = false});
  std::vector<TimeRange> weeks;
  for (const Date d : week_starts) weeks.push_back(TimeRange::week_of(d));

  const auto analyzer =
      scan(vp, weeks, 700, [&] { return analysis::PortAnalyzer(weeks); });

  std::cout << "--- " << to_string(id) << " ---\n";
  std::cout << "TCP/443 + TCP/80 share of total bytes: "
            << fmt(100 * analyzer.web_share(), 1) << "%  (paper: "
            << (id == VantagePointId::kIspCe ? "~80%" : "~60%") << ")\n\n";

  const auto top = analyzer.top_ports(12);  // the paper plots the top 3-12 ports
  const auto profiles = analyzer.profiles(top);

  // Per-port summary: weekly workday working-hours & weekend means of the
  // normalized profile -- the quantities behind the section 4 narrative.
  util::Table table({"port", "wk1 workday", "wk2 workday", "wk3 workday",
                     "wk1 weekend", "wk2 weekend", "wk3 weekend"});
  for (const auto& port : top) {
    std::array<double, 3> wd{}, we{};
    for (const auto& p : profiles) {
      if (!(p.port == port)) continue;
      double wsum = 0, esum = 0;
      for (unsigned h = 8; h < 20; ++h) {
        wsum += p.workday[h];
        esum += p.weekend[h];
      }
      wd[p.week_index] = wsum / 12.0;
      we[p.week_index] = esum / 12.0;
    }
    table.add_row({port.to_string(), fmt(wd[0]), fmt(wd[1]), fmt(wd[2]),
                   fmt(we[0]), fmt(we[1]), fmt(we[2])});
  }
  std::cout << table << "\n";
}

void print_reproduction() {
  std::cout << "=== Figure 7: top application ports, three weeks ===\n"
            << "(normalized 8-20h means per week; full 24h profiles available\n"
            << " via analysis::PortAnalyzer::profiles)\n\n";
  // Paper section 4: ISP weeks Feb 20-26, Mar 19-25, Apr 9-15; IXP weeks
  // Feb 20-26, Mar 19-25, Apr 23-29.
  analyze_vantage(VantagePointId::kIspCe,
                  {Date(2020, 2, 20), Date(2020, 3, 19), Date(2020, 4, 9)});
  analyze_vantage(VantagePointId::kIxpCe,
                  {Date(2020, 2, 20), Date(2020, 3, 19), Date(2020, 4, 23)});
  std::cout
      << "(paper section 4 expectations: QUIC +30-80%; UDP/4500 & UDP/1194 up\n"
      << " during working hours; TCP/8080 and UDP/2408 flat; TCP/8200 spreads\n"
      << " over the day at the IXP; UDP/8801 ~10x at the ISP; TCP/993 +60%)\n\n";
}

void BM_Fig7_PortAggregation(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(isp.model, registry(),
                                     {.connections_per_hour = 500});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  for (auto _ : state) {
    analysis::PortAnalyzer analyzer({TimeRange::week_of(Date(2020, 3, 19))});
    analyzer.add_batch(records, cols);
    benchmark::DoNotOptimize(analyzer.top_ports(12));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Fig7_PortAggregation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
