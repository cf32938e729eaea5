// Figure 12: "Daily connections relative to Feb 27 for selected traffic
// categories" at the EDU network (log scale in the paper), plus the
// section 7 median-growth numbers (web 1.7x, email 1.8x, VPN 4.8x, remote
// desktop 5.9x, SSH 9.1x incoming; hypergiant/QUIC/push/Spotify outgoing
// declines).
#include "analysis/edu.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using analysis::Direction;
using analysis::EduClass;
using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Figure 12: EDU daily connections by traffic class ===\n\n";

  const auto edu = synth::build_vantage(VantagePointId::kEdu, registry(),
                                        {.seed = 42});
  const analysis::AsView view(registry().trie());
  // The paper's EDU capture: Feb 27 - May 8 (72 days, 5.2B flows).
  const auto analyzer = scan(
      edu,
      {TimeRange{Timestamp::from_date(Date(2020, 2, 27)),
                 Timestamp::from_date(Date(2020, 5, 9))}},
      700, [&] {
        return analysis::EduAnalyzer(
            view, analysis::AsnSet(edu.local_ases),
            analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
      });

  const struct {
    const char* label;
    EduClass cls;
    Direction dir;
  } kCategories[] = {
      {"Eyeball ISPs (Email, In)", EduClass::kEmail, Direction::kIncoming},
      {"Eyeball ISPs (VPN, In)", EduClass::kVpn, Direction::kIncoming},
      {"Eyeball ISPs (Web, In)", EduClass::kWeb, Direction::kIncoming},
      {"Hypergiants (Web, Out)", EduClass::kHypergiantWeb, Direction::kOutgoing},
      {"Push notifications (Out)", EduClass::kPushNotifications, Direction::kOutgoing},
      {"QUIC (Out)", EduClass::kQuic, Direction::kOutgoing},
  };

  // Fig 12 proper: daily growth relative to the Feb 27 baseline (weekly
  // rows to keep the table readable).
  util::Table table({"date", "Email In", "VPN In", "Web In", "HG Web Out",
                     "Push Out", "QUIC Out"});
  std::map<std::pair<EduClass, Direction>, std::vector<std::pair<Date, double>>> series;
  for (const auto& cat : kCategories) {
    series[{cat.cls, cat.dir}] = analyzer.daily_connections(cat.cls, cat.dir);
  }
  auto value_on = [&](EduClass cls, Direction dir, Date d) {
    for (const auto& [date, v] : series[{cls, dir}]) {
      if (date == d) return v;
    }
    return 0.0;
  };
  for (Date d = Date(2020, 2, 27); d < Date(2020, 5, 9); d = d.plus_days(7)) {
    std::vector<std::string> row = {d.to_string()};
    for (const auto& cat : kCategories) {
      const double base = value_on(cat.cls, cat.dir, Date(2020, 2, 27));
      const double v = value_on(cat.cls, cat.dir, d);
      row.push_back(base > 0 ? fmt(v / base) : "n/a");
    }
    table.add_row(std::move(row));
  }
  std::cout << table << "\n";

  // Section 7 median-growth numbers.
  const TimeRange before{Timestamp::from_date(Date(2020, 2, 27)),
                         Timestamp::from_date(Date(2020, 3, 11))};
  const TimeRange after{Timestamp::from_date(Date(2020, 3, 14)),
                        Timestamp::from_date(Date(2020, 5, 9))};
  util::Table growth({"metric", "measured", "paper"});
  growth.add_row({"total connections", fmt(analyzer.median_growth_total(before, after)) + "x", "1.24x"});
  growth.add_row({"incoming connections",
                  fmt(analyzer.median_growth(Direction::kIncoming, before, after)) + "x",
                  "~2x (doubles)"});
  growth.add_row({"outgoing connections",
                  fmt(analyzer.median_growth(Direction::kOutgoing, before, after)) + "x",
                  "~0.5x (halves)"});
  growth.add_row({"web in", fmt(analyzer.median_growth(EduClass::kWeb, Direction::kIncoming, before, after)) + "x", "1.7x"});
  growth.add_row({"email in", fmt(analyzer.median_growth(EduClass::kEmail, Direction::kIncoming, before, after)) + "x", "1.8x"});
  growth.add_row({"VPN in", fmt(analyzer.median_growth(EduClass::kVpn, Direction::kIncoming, before, after)) + "x", "4.8x"});
  growth.add_row({"remote desktop in", fmt(analyzer.median_growth(EduClass::kRemoteDesktop, Direction::kIncoming, before, after)) + "x", "5.9x"});
  growth.add_row({"SSH in", fmt(analyzer.median_growth(EduClass::kSsh, Direction::kIncoming, before, after)) + "x", "9.1x"});
  growth.add_row({"hypergiant web out", fmt(analyzer.median_growth(EduClass::kHypergiantWeb, Direction::kOutgoing, before, after)) + "x", "falls below pre-COVID weekends"});
  growth.add_row({"push notifications out", fmt(analyzer.median_growth(EduClass::kPushNotifications, Direction::kOutgoing, before, after)) + "x", "~0.35x (-65%)"});
  growth.add_row({"Spotify out", fmt(analyzer.median_growth(EduClass::kSpotify, Direction::kOutgoing, before, after)) + "x", "~0.17x (-83%)"});
  std::cout << growth << "\n";

  std::cout << "Undetermined-direction share of connection flows: "
            << fmt(100 * analyzer.undetermined_fraction(), 1)
            << "%  (paper: 39% of flows)\n\n";
}

void BM_Fig12_ConnectionAnalysis(benchmark::State& state) {
  const auto edu = synth::build_vantage(VantagePointId::kEdu, registry(),
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(edu.model, registry(),
                                     {.connections_per_hour = 700});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 4, 20)));
  const analysis::AsView view(registry().trie());
  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  for (auto _ : state) {
    analysis::EduAnalyzer analyzer(view, analysis::AsnSet(edu.local_ases),
                                   analysis::AsnSet(synth::AsRegistry::hypergiant_asns()));
    analyzer.add_batch(records, cols);
    benchmark::DoNotOptimize(analyzer.undetermined_fraction());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Fig12_ConnectionAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
