// Figure 9: "Heatmaps of application class volume for three different IXP
// locations as well as for the ISP-CE" -- per application class: the base
// week normalized to [0,1], and the stage-1/stage-2 weeks as percent
// difference vs base, clamped to [-100, +200], early-morning hours (2-7am)
// removed.
#include "analysis/app_filter.hpp"
#include "bench_common.hpp"
#include "oracle/classify_oracle.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::AppClass;
using synth::VantagePointId;

constexpr AppClass kFigureClasses[] = {
    AppClass::kCdn,     AppClass::kCollabWork, AppClass::kEducational,
    AppClass::kEmail,   AppClass::kMessaging,  AppClass::kSocialMedia,
    AppClass::kGaming,  AppClass::kVod,        AppClass::kWebConf,
};

void analyze_vantage(VantagePointId id, const std::vector<Date>& week_starts) {
  const auto vp = synth::build_vantage(id, registry(),
                                       {.seed = 42, .enterprise_transit = false});
  const analysis::AsView view(registry().trie());
  const auto classifier = analysis::AppClassifier::table1();

  std::vector<TimeRange> weeks;
  for (const Date d : week_starts) weeks.push_back(TimeRange::week_of(d));
  // Batch path end to end: collector batches -> scan lanes -> columnar
  // classification -> deposit.
  const auto heatmap = scan(vp, weeks, 600, [&] {
    return analysis::ClassHeatmap(classifier, view, weeks);
  });

  std::cout << "--- " << to_string(id) << " ---\n";
  util::Table table({"class", "stage1 working-hours diff", "stage2 working-hours diff"});
  for (const AppClass cls : kFigureClasses) {
    table.add_row({synth::to_string(cls),
                   pct(heatmap.working_hours_growth(cls, 1)),
                   pct(heatmap.working_hours_growth(cls, 2))});
  }
  std::cout << table << "\n";
}

void print_reproduction() {
  std::cout << "=== Figure 9: application-class heatmaps, 4 vantage points ===\n"
            << "(working-hours mean of the clamped [-100,+200]% per-hour\n"
            << " difference vs the base week; full 168-hour heatmaps available\n"
            << " via analysis::ClassHeatmap)\n\n";

  // Paper section 5 week selection: ISP Feb 20 / Mar 19 / Apr 9;
  // IXPs Feb 20 / Mar 12 / Apr 23.
  const std::vector<Date> isp_weeks = {Date(2020, 2, 20), Date(2020, 3, 19),
                                       Date(2020, 4, 9)};
  const std::vector<Date> ixp_weeks = {Date(2020, 2, 20), Date(2020, 3, 12),
                                       Date(2020, 4, 23)};
  analyze_vantage(VantagePointId::kIxpCe, ixp_weeks);
  analyze_vantage(VantagePointId::kIxpSe, ixp_weeks);
  analyze_vantage(VantagePointId::kIxpUs, ixp_weeks);
  analyze_vantage(VantagePointId::kIspCe, isp_weeks);

  std::cout
      << "(paper section 5 expectations: Web conf >+200% everywhere;\n"
      << " messaging soars in Europe but falls in the US while email does the\n"
      << " opposite; VoD grows up to +100% at European IXPs but declines in\n"
      << " the US; gaming grows at all IXPs; social media spikes in stage 1\n"
      << " then flattens; educational declines in the US, grows at the ISP)\n\n";
}

struct ClassifyFixture {
  ClassifyFixture()
      : view(registry().trie()), classifier(analysis::AppClassifier::table1()) {
    const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                          {.seed = 42});
    const synth::FlowSynthesizer synth(ixp.model, registry(),
                                       {.connections_per_hour = 500});
    records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  }
  analysis::AsView view;
  analysis::AppClassifier classifier;
  std::vector<flow::FlowRecord> records;
};

const ClassifyFixture& classify_fixture() {
  static const ClassifyFixture f;
  return f;
}

/// The heatmap's batch path: the batch's FlowColumns (built in the timed
/// loop, as a scan lane builds them), then the batch classification.
void BM_Fig9_Classification(benchmark::State& state) {
  const auto& f = classify_fixture();
  filter::FlowColumns cols;
  std::vector<std::optional<synth::AppClass>> out(f.records.size());
  for (auto _ : state) {
    cols.build(f.records, &registry().trie());
    f.classifier.classify(f.records, cols, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_Fig9_Classification)->Unit(benchmark::kMillisecond);

void BM_Fig9_ClassificationReference(benchmark::State& state) {
  const auto& f = classify_fixture();
  for (auto _ : state) {
    std::size_t classified = 0;
    for (const auto& r : f.records) {
      classified +=
          oracle::classify_reference(f.classifier, r, f.view).has_value() ? 1 : 0;
    }
    benchmark::DoNotOptimize(classified);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_Fig9_ClassificationReference)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
