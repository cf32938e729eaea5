// figure_export: writes the datasets behind the paper's headline figures
// as CSV files, ready for any plotting stack (gnuplot, matplotlib, R).
// This is the hand-off point between the C++ pipeline and figure rendering.
//
//   $ ./figure_export [output-dir] [--scan-threads N]
//
// `--scan-threads N` shards the analysis scans over N ScanEngine worker
// lanes; the emitted CSVs are byte-identical for every N (the engine's
// determinism contract).
//
// Emits:
//   fig01_<vantage>.csv      weekly normalized series (Fig 1)
//   fig09_<class>.csv        IXP-CE heatmap base + stage diffs (Fig 9)
//   fig10_vpn_profiles.csv   VPN port/domain hourly profiles (Fig 10)
//   isp_hourly.csv           raw hourly ISP series Jan-May (Figs 2/3)
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "analysis/export.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "dns/corpus.hpp"
#include "dns/vpn_finder.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

using namespace lockdown;

int main(int argc, char** argv) {
  std::filesystem::path out = "figure-data";
  unsigned scan_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scan-threads") == 0 && i + 1 < argc) {
      scan_threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      out = argv[i];
    }
  }
  std::filesystem::create_directories(out);
  const auto registry = synth::AsRegistry::create_default();
  std::size_t files = 0;
  // A CSV that cannot be written fails the whole export: a partial
  // figure set must not look like a complete one.
  auto emit = [&](const util::Table& table, const std::string& name) {
    const std::string path = (out / name).string();
    if (const std::string err = analysis::write_csv(table, path); !err.empty()) {
      std::cerr << "error: cannot write " << path << ": " << err << "\n";
      std::exit(1);
    }
    std::cout << "  " << name << "  (" << table.rows() << " rows)\n";
    ++files;
  };

  // --- Fig 1 -----------------------------------------------------------------
  std::cout << "Fig 1 weekly series:\n";
  const net::TimeRange full{net::Timestamp::from_date(net::Date(2020, 1, 1)),
                            net::Timestamp::from_date(net::Date(2020, 5, 18))};
  for (const auto id :
       {synth::VantagePointId::kIspCe, synth::VantagePointId::kIxpCe,
        synth::VantagePointId::kIxpSe, synth::VantagePointId::kIxpUs,
        synth::VantagePointId::kMobileCe, synth::VantagePointId::kIpxCe}) {
    const auto vp = synth::build_vantage(id, registry,
                                         {.seed = 42, .enterprise_transit = false});
    analysis::ScanEngine<analysis::VolumeAggregator> engine(
        scan_threads, [] { return analysis::VolumeAggregator(stats::Bucket::kDay); },
        &registry.trie());
    analysis::synthesize_through_wire(vp, registry, full, {.connections_per_hour = 150},
                                      engine);
    analysis::VolumeAggregator& agg = engine.finish();
    std::string name = to_string(id);
    for (char& c : name) c = c == '-' ? '_' : static_cast<char>(std::tolower(c));
    emit(analysis::weekly_table(analysis::weekly_normalized(agg.series(), 3)),
         "fig01_" + name + ".csv");
  }

  // --- raw hourly ISP series (input to Figs 2 and 3) ---------------------------
  {
    const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, registry,
                                          {.seed = 42, .enterprise_transit = false});
    analysis::ScanEngine<analysis::VolumeAggregator> engine(
        scan_threads, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); },
        &registry.trie());
    analysis::synthesize_through_wire(isp, registry, full, {.connections_per_hour = 150},
                                      engine);
    emit(analysis::timeseries_table(engine.finish().series(), "bytes"),
         "isp_hourly.csv");
  }

  // --- Fig 9 heatmaps (IXP-CE) --------------------------------------------------
  std::cout << "Fig 9 heatmaps (IXP-CE):\n";
  {
    const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                          {.seed = 42});
    const analysis::AsView view(registry.trie());
    const auto classifier = analysis::AppClassifier::table1();
    const std::vector<net::TimeRange> weeks = {
        net::TimeRange::week_of(net::Date(2020, 2, 20)),
        net::TimeRange::week_of(net::Date(2020, 3, 12)),
        net::TimeRange::week_of(net::Date(2020, 4, 23))};
    analysis::ScanEngine<analysis::ClassHeatmap> engine(
        scan_threads,
        [&] { return analysis::ClassHeatmap(classifier, view, weeks); },
        &registry.trie());
    for (const auto& w : weeks) {
      analysis::synthesize_through_wire(ixp, registry, w, {.connections_per_hour = 400},
                                        engine);
    }
    analysis::ClassHeatmap& heatmap = engine.finish();
    for (const auto cls : heatmap.observed_classes()) {
      std::string name = synth::to_string(cls);
      for (char& c : name) c = (c == ' ' || c == '.') ? '_' : static_cast<char>(std::tolower(c));
      emit(analysis::heatmap_table(heatmap, cls, 2), "fig09_" + name + ".csv");
    }
  }

  // --- Fig 10 VPN profiles -------------------------------------------------------
  std::cout << "Fig 10 VPN profiles:\n";
  {
    const auto corpus = dns::generate_corpus({.seed = 5, .organizations = 2000});
    const auto psl = dns::PublicSuffixList::builtin();
    const auto funnel = dns::VpnCandidateFinder(psl).find(corpus.domains, corpus.dns);
    synth::ScenarioConfig cfg{.seed = 42};
    cfg.vpn_tls_server_ips.assign(funnel.candidate_ips.begin(),
                                  funnel.candidate_ips.end());
    const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry, cfg);
    const std::vector<net::TimeRange> weeks = {
        net::TimeRange::week_of(net::Date(2020, 2, 20)),
        net::TimeRange::week_of(net::Date(2020, 3, 19)),
        net::TimeRange::week_of(net::Date(2020, 4, 23))};
    analysis::ScanEngine<analysis::VpnAnalyzer> engine(
        scan_threads,
        [&] { return analysis::VpnAnalyzer(weeks, funnel.candidate_ips); },
        &registry.trie());
    for (const auto& w : weeks) {
      analysis::synthesize_through_wire(ixp, registry, w, {.connections_per_hour = 500},
                                        engine);
    }
    emit(analysis::vpn_profile_table(engine.finish().profiles()),
         "fig10_vpn_profiles.csv");
  }

  std::cout << "\nwrote " << files << " CSV files to " << out << "\n";
  return 0;
}
