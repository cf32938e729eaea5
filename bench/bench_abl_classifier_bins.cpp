// Ablation: pattern-classifier aggregation window (DESIGN.md section 5),
// plus the app-classifier compilation ablation (DESIGN.md section 9): the
// batch entry over the fused filter plan vs the interpreted registry scan
// (the test oracle oracle::classify_reference()) on identical traffic. The
// reproduction prints only their agreement; the speedup is timed by
// BM_AppClassify_Reference / BM_AppClassify_Batch and gated (>= 5x) by
// scripts/bench_compare.py.
//
// The paper classifies days from 6-hour bins. This sweep re-runs Fig 2's
// classification with 1/2/3/4/6/12-hour bins and reports (a) agreement
// with actual day types before the lockdown and (b) the fraction of
// post-lockdown days classified weekend-like.
#include "analysis/app_filter.hpp"
#include "analysis/pattern.hpp"
#include "analysis/volume.hpp"
#include "bench_common.hpp"
#include "oracle/classify_oracle.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using net::Timestamp;
using synth::VantagePointId;

void print_app_classifier_ablation();

void print_reproduction() {
  std::cout << "=== Ablation: workday/weekend classifier bin width ===\n\n";

  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const auto agg =
      scan(isp,
           {TimeRange{Timestamp::from_date(Date(2020, 1, 1)),
                      Timestamp::from_date(Date(2020, 5, 12))}},
           220, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); });

  util::Table table({"bin width", "pre-lockdown agreement",
                     "post-lockdown weekend-like"});
  for (const unsigned bin_hours : {1u, 2u, 3u, 4u, 6u, 12u}) {
    analysis::PatternClassifier classifier(bin_hours);
    classifier.train(agg.series(), TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                             Timestamp::from_date(Date(2020, 2, 29))});
    const auto days = classifier.classify(
        agg.series(), TimeRange{Timestamp::from_date(Date(2020, 1, 7)),
                                Timestamp::from_date(Date(2020, 5, 12))});
    std::size_t pre_agree = 0, pre_total = 0, post_weekend = 0, post_total = 0;
    for (const auto& day : days) {
      if (day.date < Date(2020, 3, 16)) {
        ++pre_total;
        pre_agree += day.agrees() ? 1 : 0;
      } else {
        ++post_total;
        post_weekend += day.classified == analysis::DayPattern::kWeekendLike ? 1 : 0;
      }
    }
    table.add_row({std::to_string(bin_hours) + "h",
                   fmt(100.0 * pre_agree / pre_total, 1) + "%",
                   fmt(100.0 * post_weekend / post_total, 1) + "%"});
  }
  std::cout << table << "\n";
  std::cout << "(takeaway: the result is robust across bin widths; 6h -- the\n"
            << " paper's choice -- is the coarsest setting that still keeps\n"
            << " pre-lockdown agreement high, at a quarter of the feature size)\n\n";

  print_app_classifier_ablation();
}

/// Batch vs reference app classification on one synthesized lockdown day:
/// both paths must agree flow for flow.
void print_app_classifier_ablation() {
  std::cout << "=== Ablation: compiled vs interpreted app classification ===\n\n";

  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(ixp.model, registry(),
                                     {.connections_per_hour = 800});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 25)));
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();

  filter::FlowColumns cols;
  cols.build(records, &registry().trie());
  std::vector<std::optional<synth::AppClass>> classes(records.size());
  classifier.classify(records, cols, classes);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    agree += classes[i] == oracle::classify_reference(classifier, records[i], view)
                 ? 1
                 : 0;
  }

  std::cout << "fused plan vs reference scan: " << agree << "/" << records.size()
            << " records classified identically\n"
            << "(speedup: BM_AppClassify_Reference vs BM_AppClassify_Batch below,\n"
            << " gated at >= 5x by scripts/bench_compare.py)\n\n";
}

void BM_Abl_ClassifierBins(benchmark::State& state) {
  const auto isp = synth::build_vantage(VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const auto agg =
      scan(isp,
           {TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                      Timestamp::from_date(Date(2020, 4, 1))}},
           200, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); });
  for (auto _ : state) {
    analysis::PatternClassifier classifier(static_cast<unsigned>(state.range(0)));
    classifier.train(agg.series(), TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                             Timestamp::from_date(Date(2020, 2, 29))});
    benchmark::DoNotOptimize(classifier.classify(
        agg.series(), TimeRange{Timestamp::from_date(Date(2020, 2, 1)),
                                Timestamp::from_date(Date(2020, 4, 1))}));
  }
}
BENCHMARK(BM_Abl_ClassifierBins)->Arg(1)->Arg(6)->Unit(benchmark::kMicrosecond);

struct AppClassifyFixture {
  AppClassifyFixture()
      : view(registry().trie()), classifier(analysis::AppClassifier::table1()) {
    const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                          {.seed = 42});
    const synth::FlowSynthesizer synth(ixp.model, registry(),
                                       {.connections_per_hour = 500});
    records = synth.collect(TimeRange::day_of(Date(2020, 3, 25)));
  }
  analysis::AsView view;
  analysis::AppClassifier classifier;
  std::vector<flow::FlowRecord> records;
};

const AppClassifyFixture& app_fixture() {
  static const AppClassifyFixture f;
  return f;
}

/// The batch entry, building the FlowColumns in the timed loop: their trie
/// lookups are the work the reference arm's AsView does per record.
void BM_AppClassify_Batch(benchmark::State& state) {
  const auto& f = app_fixture();
  filter::FlowColumns cols;
  std::vector<std::optional<synth::AppClass>> classes(f.records.size());
  for (auto _ : state) {
    cols.build(f.records, &registry().trie());
    f.classifier.classify(f.records, cols, classes);
    std::size_t hits = 0;
    for (const auto& cls : classes) hits += cls.has_value() ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_AppClassify_Batch)->Unit(benchmark::kMillisecond);

void BM_AppClassify_Reference(benchmark::State& state) {
  const auto& f = app_fixture();
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& r : f.records) {
      hits += oracle::classify_reference(f.classifier, r, f.view).has_value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_AppClassify_Reference)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
