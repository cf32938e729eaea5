// Table 2 (Appendix A): "List of Hypergiant ASes" -- the 15 hypergiants and
// their measured traffic contribution at the ISP-CE ("responsible for about
// 75% of the traffic delivered to the end-users").
#include "analysis/hypergiants.hpp"
#include "bench_common.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Table 2: hypergiant ASes and their ISP-CE traffic share ===\n\n";

  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const analysis::AsView view(registry().trie());
  const analysis::AsnSet hypergiants(synth::AsRegistry::hypergiant_asns());
  const auto analyzer =
      scan(isp, {TimeRange::week_of(Date(2020, 2, 19))}, 900,
           [&] { return analysis::HypergiantAnalyzer(view, hypergiants); });

  const auto per_hg = analyzer.per_hypergiant_bytes();
  double hg_total = 0.0;
  for (const auto& [asn, bytes] : per_hg) hg_total += bytes;

  util::Table table({"Org. Name", "ASN", "share of hypergiant bytes"});
  for (const auto asn : synth::AsRegistry::hypergiant_asns()) {
    const auto* info = registry().find(asn);
    const auto it = per_hg.find(asn);
    const double bytes = it == per_hg.end() ? 0.0 : it->second;
    table.add_row({info->name, std::to_string(asn.value()),
                   fmt(100 * bytes / hg_total, 1) + "%"});
  }
  std::cout << table << "\n";
  std::cout << "Hypergiants' share of total ISP-CE traffic (base week): "
            << fmt(100 * analyzer.hypergiant_share(), 1)
            << "%  (paper: ~75%, consistent with the literature)\n\n";
}

void BM_Tab2_SharePipeline(benchmark::State& state) {
  bench_pipeline_day(state, VantagePointId::kIspCe);
}
BENCHMARK(BM_Tab2_SharePipeline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
