// Ablation: flow sampling rate (DESIGN.md section 5).
//
// Real NetFlow deployments sample 1:100 - 1:10000. This ablation sweeps a
// systematic 1:N sampler over the ISP-CE pipeline and reports the error it
// induces on the Fig 1 headline (lockdown-week growth vs base week). The
// estimator is unbiased (sampled records carry scaled counters), so the
// growth estimate should stay centred with variance growing in N.
#include "analysis/volume.hpp"
#include "bench_common.hpp"
#include "flow/sampler.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

double measure_growth(std::uint32_t sampling_interval) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});

  auto week_total = [&](Date start) {
    flow::SystematicSampler sampler(sampling_interval);
    double total = 0.0;
    analysis::synthesize_through_wire(
        isp, registry(), TimeRange::week_of(start), synth_config(600),
        [&](std::span<const flow::FlowRecord> batch) {
          for (const flow::FlowRecord& r : batch) {
            if (const auto kept = sampler.offer(r)) {
              total += static_cast<double>(kept->bytes);
            }
          }
        });
    return total;
  };
  const double base = week_total(Date(2020, 2, 19));
  const double lockdown = week_total(Date(2020, 3, 18));
  return 100.0 * (lockdown - base) / base;
}

void print_reproduction() {
  std::cout << "=== Ablation: systematic 1:N flow sampling ===\n"
            << "(effect on the measured lockdown-week growth at ISP-CE)\n\n";
  const double reference = measure_growth(1);
  util::Table table({"sampling", "measured growth", "error vs unsampled"});
  for (const std::uint32_t n : {1u, 2u, 10u, 50u, 200u, 1000u}) {
    const double g = measure_growth(n);
    table.add_row({"1:" + std::to_string(n), pct(g), pct(g - reference)});
  }
  std::cout << table << "\n";
  std::cout << "(takeaway: byte-scaled systematic sampling keeps the growth\n"
            << " estimate centred; only very aggressive sampling adds noise --\n"
            << " which is why the paper's vantage points can run sampled)\n\n";
}

void BM_Abl_SamplerOverhead(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(isp.model, registry(),
                                     {.connections_per_hour = 600});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  for (auto _ : state) {
    flow::SystematicSampler sampler(static_cast<std::uint32_t>(state.range(0)));
    double total = 0.0;
    for (const auto& r : records) {
      if (const auto kept = sampler.offer(r)) total += static_cast<double>(kept->bytes);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Abl_SamplerOverhead)->Arg(1)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
