// Figure 8: "IXP-SE: Application class Gaming before and during lockdown.
// It shows a steep increase in # IPs and traffic volume" -- per-hour unique
// IPs and volume with daily min/avg/max envelopes, weeks 7-17, normalized
// to the observed minimum; includes the two-day gaming-provider outage in
// the first lockdown week.
#include "analysis/class_activity.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Figure 8: gaming at IXP-SE (unique IPs & volume) ===\n"
            << "(daily min/avg/max of hourly values, normalized to minimum;\n"
            << " weeks 7-17 of 2020; Spain locked down Mar 14, week 11)\n\n";

  const auto ixp = synth::build_vantage(VantagePointId::kIxpSe, registry(),
                                        {.seed = 42});
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();

  // Weeks 7-17: Feb 10 - Apr 26.
  const auto tracker =
      scan(ixp,
           {TimeRange{net::Timestamp::from_date(Date(2020, 2, 10)),
                      net::Timestamp::from_date(Date(2020, 4, 27))}},
           500, [&] {
             return analysis::ClassActivityTracker(classifier, view,
                                                   analysis::AppClass::kGaming);
           });

  const auto ips = tracker.daily_ip_envelope();
  const auto volume = tracker.daily_volume_envelope();

  util::Table table({"date", "week", "IPs min", "IPs avg", "IPs max",
                     "vol min", "vol avg", "vol max"});
  for (std::size_t i = 0; i < ips.size(); i += 2) {  // every other day
    table.add_row({ips[i].date.to_string(),
                   std::to_string(ips[i].date.paper_week()), fmt(ips[i].min, 1),
                   fmt(ips[i].avg, 1), fmt(ips[i].max, 1), fmt(volume[i].min, 1),
                   fmt(volume[i].avg, 1), fmt(volume[i].max, 1)});
  }
  std::cout << table << "\n";

  // Quantitative checks: average of daily averages per phase.
  auto phase_avg = [&](const std::vector<analysis::ClassActivityTracker::DayEnvelope>& env,
                       Date from, Date to) {
    double sum = 0;
    int n = 0;
    for (const auto& day : env) {
      if (!(day.date < from) && day.date < to) {
        sum += day.avg;
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double ip_pre = phase_avg(ips, Date(2020, 2, 10), Date(2020, 3, 9));
  const double ip_post = phase_avg(ips, Date(2020, 3, 16), Date(2020, 4, 13));
  const double vol_pre = phase_avg(volume, Date(2020, 2, 10), Date(2020, 3, 9));
  const double vol_post = phase_avg(volume, Date(2020, 3, 16), Date(2020, 4, 13));
  std::cout << "Unique IPs, lockdown vs before: " << fmt(ip_post / ip_pre)
            << "x   (paper: steep rise from week 10/11)\n";
  std::cout << "Volume,     lockdown vs before: " << fmt(vol_post / vol_pre)
            << "x\n";

  const double outage_avg = phase_avg(volume, Date(2020, 3, 12), Date(2020, 3, 14));
  const double surrounding = phase_avg(volume, Date(2020, 3, 16), Date(2020, 3, 20));
  std::cout << "Outage days (Mar 12-13) vs following week: "
            << fmt(outage_avg / surrounding)
            << "x  (paper: volume plunges for two days -- a large gaming\n"
            << " provider's outage, verified not to be a measurement artifact)\n\n";
}

void BM_Fig8_UniqueIpTracking(benchmark::State& state) {
  const auto ixp = synth::build_vantage(VantagePointId::kIxpSe, registry(),
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(ixp.model, registry(),
                                     {.connections_per_hour = 500});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();
  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  for (auto _ : state) {
    analysis::ClassActivityTracker tracker(classifier, view,
                                           analysis::AppClass::kGaming);
    tracker.add_batch(records, cols);
    benchmark::DoNotOptimize(tracker.hourly());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Fig8_UniqueIpTracking)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
