// Figure 6: "ISP-CE: Heatmap of traffic shift vs residential traffic shift
// (Feb. vs Mar.)" -- per AS (including transit), the normalized difference
// of mean total volume against the normalized difference of mean
// residential (eyeball-exchanged) volume, for the workday-dominated AS
// group.
#include "analysis/remote_work.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Figure 6: remote-work-relevant ASes at ISP-CE ===\n"
            << "(per-AS total vs residential traffic shift, Feb vs Mar week;\n"
            << " includes the ISP's transit traffic)\n\n";

  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = true});
  const analysis::AsView view(registry().trie());

  std::vector<net::Asn> eyeballs;
  for (const auto* info : registry().by_role(net::AsRole::kEyeballIsp)) {
    eyeballs.push_back(info->asn);
  }
  const TimeRange feb = TimeRange::week_of(Date(2020, 2, 19));
  const TimeRange mar = TimeRange::week_of(Date(2020, 3, 18));
  const auto analyzer = scan(isp, {feb, mar}, 1200, [&] {
    return analysis::RemoteWorkAnalyzer(view, analysis::AsnSet(eyeballs),
                                        analysis::AsnSet({net::Asn(64700)}), feb, mar);
  });

  // 2D histogram of the shift plane (5x5 bins over [-1,1]^2), like the
  // paper's heatmap, for the workday-dominated group.
  int histogram[5][5] = {};
  std::size_t population = 0;
  for (const auto& s : analyzer.shifts()) {
    if (s.group != analysis::WeekRatioGroup::kWorkdayDominated) continue;
    const int x = std::min(4, static_cast<int>((s.total_shift + 1.0) / 0.4));
    const int y = std::min(4, static_cast<int>((s.residential_shift + 1.0) / 0.4));
    ++histogram[4 - y][x];
    ++population;
  }
  std::cout << "AS density over (x: total shift, y: residential shift), "
            << population << " workday-dominated ASes:\n";
  util::Table table({"res \\ total", "[-1,-.6)", "[-.6,-.2)", "[-.2,.2)",
                     "[.2,.6)", "[.6,1]"});
  const char* ylabels[] = {"[.6,1]", "[.2,.6)", "[-.2,.2)", "[-.6,-.2)", "[-1,-.6)"};
  for (int row = 0; row < 5; ++row) {
    std::vector<std::string> cells = {ylabels[row]};
    for (int col = 0; col < 5; ++col) cells.push_back(std::to_string(histogram[row][col]));
    table.add_row(std::move(cells));
  }
  std::cout << table << "\n";

  const auto q = analyzer.quadrants();
  std::cout << "Quadrants (workday-dominated group):\n"
            << "  total up,   residential up:   " << q.up_up << "\n"
            << "  total up,   residential down: " << q.up_down << "\n"
            << "  total down, residential up:   " << q.down_up
            << "   (paper: companies with shrinking internal traffic)\n"
            << "  total down, residential down: " << q.down_down << "\n\n";

  std::cout << "Correlation(total shift, residential shift):\n";
  for (const auto group : {analysis::WeekRatioGroup::kWorkdayDominated,
                           analysis::WeekRatioGroup::kBalanced,
                           analysis::WeekRatioGroup::kWeekendDominated}) {
    std::cout << "  " << to_string(group) << ": "
              << fmt(analyzer.shift_correlation(group)) << "\n";
  }
  std::cout << "(paper: for a majority of ASes the residential increase\n"
            << " correlates with the total increase; weaker in other groups)\n\n";
}

void BM_Fig6_PerAsAccumulation(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = true});
  const synth::FlowSynthesizer synth(isp.model, registry(),
                                     {.connections_per_hour = 600});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  const analysis::AsView view(registry().trie());
  std::vector<net::Asn> eyeballs;
  for (const auto* info : registry().by_role(net::AsRole::kEyeballIsp)) {
    eyeballs.push_back(info->asn);
  }
  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  for (auto _ : state) {
    analysis::RemoteWorkAnalyzer analyzer(
        view, analysis::AsnSet(eyeballs), analysis::AsnSet({net::Asn(64700)}),
        TimeRange::week_of(Date(2020, 2, 19)), TimeRange::week_of(Date(2020, 3, 18)));
    analyzer.add_batch(records, cols);
    benchmark::DoNotOptimize(analyzer.shifts());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Fig6_PerAsAccumulation)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
