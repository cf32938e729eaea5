// Cross-validation experiment (extension): the paper corroborates its
// traffic findings with Google's COVID-19 Community Mobility Reports
// ("our findings are confirmed by mobility reports published by Google",
// section 1). This bench runs that comparison quantitatively against the
// synthetic mobility model: daily ISP traffic vs daily mobility indices,
// with Pearson correlations per region.
#include "analysis/volume.hpp"
#include "bench_common.hpp"
#include "stats/ecdf.hpp"
#include "synth/mobility.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Cross-validation: traffic growth vs mobility reports ===\n"
            << "(extension experiment; paper section 1 cites Google's mobility\n"
            << " reports as corroboration of the traffic shifts)\n\n";

  const struct {
    VantagePointId vantage;
    synth::Region region;
  } kPairs[] = {
      {VantagePointId::kIspCe, synth::Region::kCentralEurope},
      {VantagePointId::kIxpSe, synth::Region::kSouthernEurope},
      {VantagePointId::kIxpUs, synth::Region::kUsEastCoast},
  };

  util::Table table({"vantage point", "corr(traffic, residential)",
                     "corr(traffic, workplaces)", "corr(traffic, transit)"});
  for (const auto& pair : kPairs) {
    const auto vp = synth::build_vantage(pair.vantage, registry(),
                                         {.seed = 42, .enterprise_transit = false});
    const synth::MobilityModel mobility(pair.region, 42);

    const auto agg =
        scan(vp,
             {TimeRange{Timestamp::from_date(Date(2020, 2, 3)),
                        Timestamp::from_date(Date(2020, 5, 1))}},
             180, [] { return analysis::VolumeAggregator(stats::Bucket::kDay); });

    std::vector<double> traffic, residential, workplaces, transit;
    for (const auto& [ts, volume] : agg.series().points()) {
      const Date d = ts.date();
      if (d.is_weekend_day()) continue;  // compare weekdays with weekdays
      const auto m = mobility.day(d);
      traffic.push_back(volume);
      residential.push_back(m.residential);
      workplaces.push_back(m.workplaces);
      transit.push_back(m.transit_stations);
    }
    table.add_row({to_string(pair.vantage),
                   fmt(stats::pearson(traffic, residential)),
                   fmt(stats::pearson(traffic, workplaces)),
                   fmt(stats::pearson(traffic, transit))});
  }
  std::cout << table << "\n";

  // The mobility curves themselves, sampled weekly (Tuesdays).
  std::cout << "Mobility indices (Central Europe, Tuesdays; Google convention,\n"
            << "percent vs pre-pandemic baseline):\n";
  const synth::MobilityModel ce(synth::Region::kCentralEurope, 42);
  util::Table curve({"date", "workplaces", "transit", "residential"});
  for (Date d(2020, 2, 4); d < Date(2020, 5, 20); d = d.plus_days(14)) {
    const auto m = ce.day(d);
    curve.add_row({d.to_string(), pct(m.workplaces), pct(m.transit_stations),
                   pct(m.residential)});
  }
  std::cout << curve << "\n";
  std::cout << "(takeaway: traffic correlates strongly and positively with\n"
            << " at-home presence and negatively with workplace/transit\n"
            << " mobility at every vantage point -- the cross-dataset\n"
            << " consistency the paper points to, incl. the later US shift)\n\n";
}

void BM_Xval_MobilitySeries(benchmark::State& state) {
  const synth::MobilityModel model(synth::Region::kCentralEurope, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.series(Date(2020, 1, 1), Date(2020, 6, 1)));
  }
}
BENCHMARK(BM_Xval_MobilitySeries)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
