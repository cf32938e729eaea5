// Quickstart: build the synthetic Internet, synthesize one pre-lockdown
// and one lockdown week at the Central European ISP, push the flows
// through a real NetFlow v5 export/collect pipeline with on-premise
// anonymization, and measure the headline lockdown effect.
//
//   $ ./quickstart
#include <cstdio>
#include <iostream>

#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "flow/anonymizer.hpp"
#include "synth/as_registry.hpp"
#include "synth/vantage.hpp"
#include "util/strings.hpp"

using namespace lockdown;

int main() {
  // 1. The synthetic Internet: Table 2 hypergiants, eyeballs, enterprises.
  const synth::AsRegistry registry = synth::AsRegistry::create_default();

  // 2. A calibrated vantage point (the paper's L-ISP).
  const synth::ScenarioConfig scenario{.seed = 42, .enterprise_transit = false};
  const synth::VantagePoint isp =
      synth::build_vantage(synth::VantagePointId::kIspCe, registry, scenario);
  std::cout << "Vantage point: " << isp.description << "\n";
  std::cout << "Traffic components: " << isp.model.components().size() << "\n\n";

  // 3. Synthesize flows for a base week (Feb 19-26) and a lockdown week
  //    (Mar 18-25), the comparison of the paper's Fig 3, and run them
  //    through the vantage point's real export pipeline: NetFlow v5 on the
  //    wire, SipHash anonymization at the collector.
  const auto base_week =
      net::TimeRange::week_of(net::Date(2020, 2, 19));
  const auto lockdown_week =
      net::TimeRange::week_of(net::Date(2020, 3, 18));
  const flow::Anonymizer anonymizer({0xfeed, 0xbeef},
                                    flow::AnonymizationMode::kFullHash);

  // 4. Aggregate each week's decoded datagrams into an hourly volume
  //    series (a one-lane analysis scan).
  auto run_week = [&](net::TimeRange week) {
    analysis::ScanEngine<analysis::VolumeAggregator> engine(
        1, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); });
    analysis::synthesize_through_wire(isp, registry, week,
                                      {.connections_per_hour = 600}, engine,
                                      &anonymizer);
    return std::move(engine.finish());
  };
  const analysis::VolumeAggregator base_vol = run_week(base_week);
  const analysis::VolumeAggregator lock_vol = run_week(lockdown_week);

  // 5. The headline result (§1): traffic grew by 15-20% within a week of
  //    the lockdown.
  const double base_total = base_vol.series().total();
  const double lock_total = lock_vol.series().total();
  const double growth = 100.0 * (lock_total - base_total) / base_total;

  std::cout << "Base week (Feb 19-26):     " << util::format_bytes(base_total)
            << "  (" << base_vol.records() << " flow records)\n";
  std::cout << "Lockdown week (Mar 18-25): " << util::format_bytes(lock_total)
            << "  (" << lock_vol.records() << " flow records)\n";
  std::cout << "Lockdown effect:           " << util::format_fixed(growth, 1)
            << "% traffic growth\n\n";

  std::cout << "Peak/min hourly volume, base week:     "
            << util::format_fixed(
                   base_vol.series().max_value() / base_vol.series().min_value(), 2)
            << "x\n";
  std::cout << "Peak/min hourly volume, lockdown week: "
            << util::format_fixed(
                   lock_vol.series().max_value() / lock_vol.series().min_value(), 2)
            << "x\n";
  return 0;
}
