// Quantifying the section 9 discussion: "the effect of the pandemic fills
// the valleys during the working hours and has a moderate increase in the
// peak traffic" -- i.e. traffic engineering's peak-based provisioning
// survives the lockdown even though totals jump.
//
// Prints the stratified load growth (valley / off-peak / mean / p95 / peak)
// between the base and lockdown weeks at every volumetric vantage point.
#include "analysis/peaks.hpp"
#include "analysis/volume.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Section 9 check: valleys fill, peaks grow moderately ===\n\n";

  const TimeRange base = TimeRange::week_of(Date(2020, 2, 19));
  const TimeRange lockdown = TimeRange::week_of(Date(2020, 3, 18));

  util::Table table({"vantage point", "valley", "off-peak", "mean", "p95",
                     "peak", "peak/mean before -> after"});
  for (const auto id : {VantagePointId::kIspCe, VantagePointId::kIxpCe,
                        VantagePointId::kIxpSe}) {
    const auto vp = synth::build_vantage(id, registry(),
                                         {.seed = 42, .enterprise_transit = false});
    const auto agg = scan(vp, {base, lockdown}, 350, [] {
      return analysis::VolumeAggregator(stats::Bucket::kHour);
    });

    const auto shift = analysis::PeakAnalyzer::compare(agg.series(), base, lockdown);
    table.add_row({to_string(id), pct(shift.valley_growth_pct()),
                   pct(shift.offpeak_growth_pct()), pct(shift.mean_growth_pct()),
                   pct(shift.p95_growth_pct()), pct(shift.peak_growth_pct()),
                   fmt(shift.base_peak_to_mean()) + " -> " +
                       fmt(shift.after_peak_to_mean())});
    if (!shift.valleys_fill_faster()) {
      std::cout << "WARNING: valleys did not fill faster than peaks at "
                << to_string(id) << "\n";
    }
  }
  std::cout << table << "\n";
  std::cout
      << "(paper section 9: peak increases are smaller than the 15-20% total\n"
      << " growth; networks provisioned for 30%-over-peak absorb the shift.\n"
      << " The falling peak/mean ratio is the valley-filling in one number.)\n\n";
}

void BM_Xval_PeakProfile(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const auto agg = scan(isp, {TimeRange::week_of(Date(2020, 3, 18))}, 350, [] {
    return analysis::VolumeAggregator(stats::Bucket::kHour);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::PeakAnalyzer::profile(
        agg.series(), TimeRange::week_of(Date(2020, 3, 18))));
  }
}
BENCHMARK(BM_Xval_PeakProfile)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
