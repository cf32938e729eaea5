// lockdown_report: the "network operator report" example -- runs the whole
// scenario across all seven vantage points and prints a condensed
// operator-facing report of the lockdown effect: weekly growth per vantage
// point, the usage-pattern shift, and the application classes that need
// provisioning attention.
//
//   $ ./lockdown_report [seed] [--scan-threads N]
//
// `--scan-threads N` shards the aggregation scans (sections 2 and 3) over
// N ScanEngine worker lanes; the report is byte-identical for every N.
//
// The report is composed in memory and written to stdout at the end, so a
// failed write (a full disk, a broken device) is caught with its own errno:
// the program then exits 1 with `stdout: <reason>` on stderr.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "analysis/app_filter.hpp"
#include "analysis/pattern.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace lockdown;

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  unsigned scan_threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scan-threads") == 0 && i + 1 < argc) {
      scan_threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      seed = std::strtoull(argv[i], nullptr, 10);
    }
  }
  const auto registry = synth::AsRegistry::create_default();
  const synth::ScenarioConfig cfg{.seed = seed, .enterprise_transit = false};
  std::ostringstream out;

  out << "==========================================================\n"
      << " THE LOCKDOWN EFFECT -- operator report (seed " << seed << ")\n"
      << "==========================================================\n\n";

  // --- 1. Volume shifts across all vantage points -------------------------
  out << "1. Traffic volume, lockdown week (Mar 18-25) vs base (Feb 19-26)\n\n";
  util::Table volumes({"vantage point", "wire format", "base week", "lockdown week",
                       "growth"});
  for (const auto id :
       {synth::VantagePointId::kIspCe, synth::VantagePointId::kIxpCe,
        synth::VantagePointId::kIxpSe, synth::VantagePointId::kIxpUs,
        synth::VantagePointId::kEdu, synth::VantagePointId::kMobileCe,
        synth::VantagePointId::kIpxCe}) {
    const auto vp = synth::build_vantage(id, registry, cfg);
    const auto week_bytes = [&](net::Date start) {
      double bytes = 0;
      analysis::synthesize_through_wire(
          vp, registry, net::TimeRange::week_of(start), {.connections_per_hour = 250},
          [&](std::span<const flow::FlowRecord> batch) {
            for (const flow::FlowRecord& r : batch) bytes += static_cast<double>(r.bytes);
          });
      return bytes;
    };
    const double base = week_bytes(net::Date(2020, 2, 19));
    const double lockdown = week_bytes(net::Date(2020, 3, 18));
    volumes.add_row({to_string(id), to_string(vp.protocol),
                     util::format_bytes(base), util::format_bytes(lockdown),
                     (lockdown >= base ? "+" : "") +
                         util::format_fixed(100 * (lockdown - base) / base, 1) + "%"});
  }
  out << volumes << "\n";

  // --- 2. The usage-pattern shift -----------------------------------------
  out << "2. Day-pattern classification at the ISP (Fig 2 method)\n\n";
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, registry, cfg);
  analysis::ScanEngine<analysis::VolumeAggregator> hourly_engine(
      scan_threads, [] { return analysis::VolumeAggregator(stats::Bucket::kHour); },
      &registry.trie());
  analysis::synthesize_through_wire(
      isp, registry,
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 2, 1)),
                     net::Timestamp::from_date(net::Date(2020, 4, 30))},
      {.connections_per_hour = 250}, hourly_engine);
  analysis::VolumeAggregator& hourly = hourly_engine.finish();
  analysis::PatternClassifier classifier(6);
  classifier.train(hourly.series(),
                   net::TimeRange{net::Timestamp::from_date(net::Date(2020, 2, 1)),
                                  net::Timestamp::from_date(net::Date(2020, 2, 29))});
  const auto days = classifier.classify(
      hourly.series(),
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 16)),
                     net::Timestamp::from_date(net::Date(2020, 4, 30))});
  std::size_t weekend_like = 0;
  for (const auto& d : days) {
    weekend_like += d.classified == analysis::DayPattern::kWeekendLike ? 1 : 0;
  }
  out << "   " << weekend_like << " of " << days.size()
      << " post-lockdown days look like weekends.\n"
      << "   => evening peaks are gone; provision for all-day load.\n\n";

  // --- 3. Application classes needing provisioning attention --------------
  out << "3. Application-class growth at the IXP (working hours, Fig 9)\n\n";
  const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry, cfg);
  const analysis::AsView view(registry.trie());
  const auto app_classifier = analysis::AppClassifier::table1();
  const std::vector<net::TimeRange> weeks = {
      net::TimeRange::week_of(net::Date(2020, 2, 20)),
      net::TimeRange::week_of(net::Date(2020, 3, 19))};
  analysis::ScanEngine<analysis::ClassHeatmap> heatmap_engine(
      scan_threads,
      [&] { return analysis::ClassHeatmap(app_classifier, view, weeks); },
      &registry.trie());
  for (const auto& w : weeks) {
    analysis::synthesize_through_wire(ixp, registry, w, {.connections_per_hour = 400},
                                      heatmap_engine);
  }
  analysis::ClassHeatmap& heatmap = heatmap_engine.finish();

  util::Table apps({"class", "working-hours growth", "action"});
  for (const auto cls : heatmap.observed_classes()) {
    const double growth = heatmap.working_hours_growth(cls, 1);
    const char* action = growth > 100   ? "upgrade ports NOW"
                         : growth > 30  ? "watch closely"
                         : growth > -10 ? "steady"
                                        : "capacity freed";
    apps.add_row({synth::to_string(cls),
                  (growth >= 0 ? "+" : "") + util::format_fixed(growth, 1) + "%",
                  action});
  }
  out << apps << "\n";
  out << "Report complete. See bench/ for the per-figure reproductions.\n";

  const std::string text = out.str();
  if (std::fwrite(text.data(), 1, text.size(), stdout) != text.size() ||
      std::fflush(stdout) != 0) {
    std::cerr << "stdout: " << std::strerror(errno) << "\n";
    return 1;
  }
  return 0;
}
