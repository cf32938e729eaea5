// Columnar batched analysis kernels + parallel slice-scan engine
// (DESIGN.md §15): the cost of running the full figure-aggregator set over
// one record stream, three ways.
//
//   BM_AnalysisPerRecord    the record-at-a-time reference: every record
//                           through the 1-record adapter (its own
//                           FlowColumns, then every aggregator's add_batch),
//                           the monitor filters checked by the tree-walking
//                           oracle::match_reference.
//   BM_AnalysisBatchColumns the columnar path: FlowColumns built once per
//                           4096-record chunk, every aggregator's
//                           add_batch() reading the shared columns.
//   BM_AnalysisScan/N       the batch path sharded over N ScanEngine
//                           worker lanes with thread-local aggregator
//                           bundles and a deterministic merge (output is
//                           bit-identical for every N).
//
// print_reproduction() cross-checks all three paths produce identical
// figures before anything is timed.
#include <optional>
#include <set>
#include <span>

#include "analysis/app_filter.hpp"
#include "analysis/export.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/ports.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "bench_common.hpp"
#include "filter/plan.hpp"
#include "oracle/filter_oracle.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

const std::vector<TimeRange>& analysis_weeks() {
  static const std::vector<TimeRange> weeks = {
      TimeRange::week_of(Date(2020, 2, 20)), TimeRange::week_of(Date(2020, 3, 12)),
      TimeRange::week_of(Date(2020, 4, 23))};
  return weeks;
}

/// Monitoring-object volume filters riding on the scan: one per traffic
/// class of interest, mirroring the Table 1 / DESIGN.md §12 monitoring
/// inventory scale (web, QUIC, VPN, conferencing, email, push, gaming,
/// hypergiants, education). The per-record reference bundle evaluates them
/// with the tree-walking oracle (oracle::match_reference); the columnar
/// bundle uses the same filters as compiled plan masks over the shared
/// columns.
const std::vector<filter::CompiledFilter>& monitor_filters() {
  static const std::vector<filter::CompiledFilter> filters = [] {
    const char* sources[] = {
        "proto tcp and port 443,80",
        "proto udp and port 443",
        "proto udp and port 500,4500,1194 or proto 47,50",
        "proto udp and port 3478,5004,8801,9000 or proto tcp and port 5222,8801",
        "proto tcp and port 25,110,143,465,587,993,995",
        "proto tcp and port 5223,5228",
        "proto udp and port 3074,27015,27031,25565,60000",
        "asn 15169,20940,2906,32934,13335",
    };
    std::vector<filter::CompiledFilter> f;
    const filter::AsnTrie* trie = &registry().trie();
    for (const char* src : sources) {
      f.push_back(filter::CompiledFilter::compile(src, trie));
    }
    return f;
  }();
  return filters;
}

/// The figure aggregators lockdown_report/figure_export run per stream,
/// plus the monitoring-object volumes, as one scan bundle (the ScanEngine
/// Bundle concept).
struct AnalysisBundle {
  analysis::VolumeAggregator volume;
  analysis::PortAnalyzer ports;
  analysis::HypergiantAnalyzer hyper;
  analysis::ClassHeatmap heatmap;
  analysis::VpnAnalyzer vpn;
  std::vector<analysis::VolumeAggregator> monitors;
  /// Reference arm: the monitors carry no compiled filter and the oracle
  /// gates each batch instead. That arm feeds 1-record batches
  /// (analysis::add_record), so one verdict covers the whole batch.
  bool oracle_monitors = false;

  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols) {
    volume.add_batch(records, cols);
    ports.add_batch(records, cols);
    hyper.add_batch(records, cols);
    heatmap.add_batch(records, cols);
    vpn.add_batch(records, cols);
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      if (oracle_monitors &&
          !oracle::match_reference(monitor_filters()[i], records.front())) {
        continue;
      }
      monitors[i].add_batch(records, cols);
    }
  }

  void merge(const AnalysisBundle& o) {
    volume.merge(o.volume);
    ports.merge(o.ports);
    hyper.merge(o.hyper);
    heatmap.merge(o.heatmap);
    vpn.merge(o.vpn);
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      monitors[i].merge(o.monitors[i]);
    }
  }
};

struct ScanFixture {
  ScanFixture()
      : view(registry().trie()),
        classifier(analysis::AppClassifier::table1()),
        hypergiants(analysis::AsnSet(synth::AsRegistry::hypergiant_asns())) {
    const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(),
                                          {.seed = 42});
    const synth::FlowSynthesizer synth(ixp.model, registry(),
                                       {.connections_per_hour = 40,
                                        .gen_threads = gen_threads()});
    for (const TimeRange& w : analysis_weeks()) {
      const auto week = synth.collect(w);
      records.insert(records.end(), week.begin(), week.end());
    }
  }

  /// `oracle_monitors`: check the monitor filters record by record with
  /// the tree-walking oracle instead of compiled plan masks. Results are
  /// identical either way (the plan is fuzz-pinned against the oracle).
  [[nodiscard]] AnalysisBundle make_bundle(bool oracle_monitors) const {
    AnalysisBundle b{
        analysis::VolumeAggregator(stats::Bucket::kDay),
        analysis::PortAnalyzer(analysis_weeks()),
        analysis::HypergiantAnalyzer(view, hypergiants),
        analysis::ClassHeatmap(classifier, view, analysis_weeks()),
        analysis::VpnAnalyzer(analysis_weeks(), {}),
        {},
        oracle_monitors};
    for (const filter::CompiledFilter& plan : monitor_filters()) {
      b.monitors.emplace_back(stats::Bucket::kDay,
                              oracle_monitors ? nullptr : &plan);
    }
    return b;
  }

  analysis::AsView view;
  analysis::AppClassifier classifier;
  analysis::AsnSet hypergiants;
  std::vector<flow::FlowRecord> records;
};

const ScanFixture& fixture() {
  static const ScanFixture f;
  return f;
}

/// One figure-deterministic string per bundle; byte-compared across paths.
std::string render(AnalysisBundle& b) {
  std::string out = analysis::timeseries_table(b.volume.series()).to_csv();
  for (const auto cls : b.heatmap.observed_classes()) {
    out += analysis::heatmap_table(b.heatmap, cls, analysis_weeks().size() - 1)
               .to_csv();
  }
  out += analysis::vpn_profile_table(b.vpn.profiles()).to_csv();
  for (const auto& p : b.ports.profiles(b.ports.top_ports(8))) {
    out += p.port.to_string() + "/" + std::to_string(p.week_index) + "\n";
  }
  for (const auto& m : b.monitors) {
    out += std::to_string(m.records()) + "\n";
    out += analysis::timeseries_table(m.series()).to_csv();
  }
  return out;
}

void run_per_record(AnalysisBundle& b) {
  for (const flow::FlowRecord& r : fixture().records) {
    analysis::add_record(b, r, &registry().trie());
  }
}

void run_batch_columns(AnalysisBundle& b) {
  const std::span<const flow::FlowRecord> all(fixture().records);
  filter::FlowColumns cols;
  for (std::size_t off = 0; off < all.size();
       off += analysis::ScanPool::kDefaultChunkRecords) {
    const auto batch = all.subspan(
        off, std::min(analysis::ScanPool::kDefaultChunkRecords, all.size() - off));
    cols.build(batch, &registry().trie());
    b.add_batch(batch, cols);
  }
}

std::string run_scan(unsigned threads) {
  analysis::ScanEngine<AnalysisBundle> engine(
      threads, [] { return fixture().make_bundle(false); }, &registry().trie());
  engine.feed(fixture().records);
  return render(engine.finish());
}

void print_reproduction() {
  const auto& f = fixture();
  std::cout << "=== Analysis scan: columnar batch kernels + slice-scan engine ===\n"
            << "(" << f.records.size() << " IXP-CE records over "
            << analysis_weeks().size() << " analysis weeks; aggregators: "
            << "volume, ports, hypergiants, heatmap, vpn, "
            << monitor_filters().size() << " monitor filters)\n\n";

  AnalysisBundle per_record = f.make_bundle(true);
  run_per_record(per_record);
  AnalysisBundle batch = f.make_bundle(false);
  run_batch_columns(batch);

  const std::string want = render(per_record);
  const bool batch_ok = render(batch) == want;
  const bool scan1_ok = run_scan(1) == want;
  const bool scan4_ok = run_scan(4) == want;
  std::cout << "per-record vs columnar batch figures: "
            << (batch_ok ? "IDENTICAL" : "MISMATCH") << "\n"
            << "per-record vs 1-thread scan figures:  "
            << (scan1_ok ? "IDENTICAL" : "MISMATCH") << "\n"
            << "per-record vs 4-thread scan figures:  "
            << (scan4_ok ? "IDENTICAL" : "MISMATCH") << "\n\n";
  if (!batch_ok || !scan1_ok || !scan4_ok) {
    std::cerr << "error: analysis paths disagree -- timings below are "
                 "meaningless\n";
  }
  std::cout << "records: " << per_record.volume.records()
            << "  web share: " << fmt(100 * per_record.ports.web_share(), 1)
            << "%  hypergiant share: "
            << fmt(100 * per_record.hyper.hypergiant_share(), 1) << "%\n\n";
}

void BM_AnalysisPerRecord(benchmark::State& state) {
  const auto& f = fixture();
  for (auto _ : state) {
    AnalysisBundle b = f.make_bundle(true);
    run_per_record(b);
    benchmark::DoNotOptimize(b.volume.records());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_AnalysisPerRecord)->Unit(benchmark::kMillisecond);

void BM_AnalysisBatchColumns(benchmark::State& state) {
  const auto& f = fixture();
  for (auto _ : state) {
    AnalysisBundle b = f.make_bundle(false);
    run_batch_columns(b);
    benchmark::DoNotOptimize(b.volume.records());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_AnalysisBatchColumns)->Unit(benchmark::kMillisecond);

void BM_AnalysisScan(benchmark::State& state) {
  const auto& f = fixture();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    analysis::ScanEngine<AnalysisBundle> engine(
        threads, [&f] { return f.make_bundle(false); }, &registry().trie());
    engine.feed(f.records);
    benchmark::DoNotOptimize(engine.finish().volume.records());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.records.size()));
}
BENCHMARK(BM_AnalysisScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
