// report_from_slices: the analyst's side. Set-up synthesizes IXP-CE over
// the three analysis weeks and spools it through ExportPump ->
// SliceSpooler into in-memory 300 s trace images. The timed part reads the
// slices back one by one (read_trace), feeds a 2-lane ScanEngine running
// the figure aggregators plus eight monitor-filter volumes (the
// bench_analysis_scan bundle), finishes and renders. Each pass's rendered
// output must equal an inline 1-lane scan of the same slices.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "analysis/export.hpp"
#include "analysis/hypergiants.hpp"
#include "analysis/ports.hpp"
#include "analysis/scan.hpp"
#include "analysis/volume.hpp"
#include "analysis/vpn.hpp"
#include "filter/plan.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/pipeline.hpp"
#include "flow/trace_file.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/siphash.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace lockdown;

/// Records spooled at set-up (tiny: self-test size).
constexpr std::size_t kRecords = 1'000'000;
constexpr std::size_t kTinyRecords = 30'000;
constexpr unsigned kScanLanes = 2;
constexpr std::int64_t kSliceSeconds = 300;
/// Records used by the isolated aggregator replays of traced runs.
constexpr std::size_t kIsolatedRecords = 400'000;
/// Scan passes per second of --seconds. The count is fixed, not timed:
/// peak_rss_mb grows with the number of passes (each starts a fresh
/// ScanEngine), so a time budget made it follow the host's speed. 8 a
/// second fills --seconds at ~9M records/s on the reference host.
constexpr double kPassesPerSecond = 8;
/// Set-up is timed at least kSetups times (two visits to each CPU of a
/// 4-CPU host) and until kSetupSeconds are spent, tiny and traced runs
/// once.
constexpr int kSetups = 8;
constexpr double kSetupSeconds = 4.0;

const std::vector<net::TimeRange>& analysis_weeks() {
  static const std::vector<net::TimeRange> weeks = {
      net::TimeRange::week_of(net::Date(2020, 2, 20)),
      net::TimeRange::week_of(net::Date(2020, 3, 12)),
      net::TimeRange::week_of(net::Date(2020, 4, 23))};
  return weeks;
}

/// Monitoring-object volume filters (web, QUIC, VPN, conferencing, email,
/// push, gaming, hypergiants), as in bench_analysis_scan.
constexpr const char* kMonitorFilters[] = {
    "proto tcp and port 443,80",
    "proto udp and port 443",
    "proto udp and port 500,4500,1194 or proto 47,50",
    "proto udp and port 3478,5004,8801,9000 or proto tcp and port 5222,8801",
    "proto tcp and port 25,110,143,465,587,993,995",
    "proto tcp and port 5223,5228",
    "proto udp and port 3074,27015,27031,25565,60000",
    "asn 15169,20940,2906,32934,13335",
};

struct Bundle {
  analysis::VolumeAggregator volume;
  analysis::PortAnalyzer ports;
  analysis::HypergiantAnalyzer hyper;
  analysis::ClassHeatmap heatmap;
  analysis::VpnAnalyzer vpn;
  std::vector<analysis::VolumeAggregator> monitors;

  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols) {
    volume.add_batch(records, cols);
    ports.add_batch(records, cols);
    hyper.add_batch(records, cols);
    heatmap.add_batch(records, cols);
    vpn.add_batch(records, cols);
    for (auto& m : monitors) m.add_batch(records, cols);
  }

  void merge(const Bundle& o) {
    volume.merge(o.volume);
    ports.merge(o.ports);
    hyper.merge(o.hyper);
    heatmap.merge(o.heatmap);
    vpn.merge(o.vpn);
    for (std::size_t i = 0; i < monitors.size(); ++i) monitors[i].merge(o.monitors[i]);
  }
};

/// Set-up products. Bundles keep references into it, so it stays put.
struct Fixture {
  synth::AsRegistry registry = synth::AsRegistry::create_default();
  analysis::AsView view{registry.trie()};
  analysis::AppClassifier classifier = analysis::AppClassifier::table1();
  analysis::AsnSet hypergiants{synth::AsRegistry::hypergiant_asns()};
  std::vector<filter::CompiledFilter> filters;
  std::vector<std::vector<std::uint8_t>> slices;
  std::uint64_t records = 0;
  std::uint64_t synth_ns = 0, spool_ns = 0, templates = 0;

  [[nodiscard]] Bundle make_bundle() const {
    Bundle b{analysis::VolumeAggregator(stats::Bucket::kDay),
             analysis::PortAnalyzer(analysis_weeks()),
             analysis::HypergiantAnalyzer(view, hypergiants),
             analysis::ClassHeatmap(classifier, view, analysis_weeks()),
             analysis::VpnAnalyzer(analysis_weeks(), {}),
             {}};
    for (const filter::CompiledFilter& f : filters) {
      b.monitors.emplace_back(stats::Bucket::kDay, &f);
    }
    return b;
  }
};

std::unique_ptr<Fixture> build_fixture(std::uint64_t seed, std::size_t target) {
  auto fx = std::make_unique<Fixture>();
  for (const char* src : kMonitorFilters) {
    fx->filters.push_back(filter::CompiledFilter::compile(src, &fx->registry.trie()));
  }
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, fx->registry,
                                       {.seed = seed});
  const double hours = 24.0 * 7 * static_cast<double>(analysis_weeks().size());
  const synth::FlowSynthesizer synth(
      vp.model, fx->registry,
      {.connections_per_hour = static_cast<double>(target) / (2 * hours),
       .seed_salt = seed});
  Fixture& f = *fx;
  flow::SliceSpooler spooler(kSliceSeconds, [&f](flow::TraceSlice&& s) {
    f.slices.push_back(std::move(s.image));
  });
  flow::ExportPump pump(
      flow::ExportProtocol::kIpfix,
      flow::ExportPump::BatchSink([&](std::span<const flow::FlowRecord> batch) {
        const std::uint64_t a = now_ns();
        for (const flow::FlowRecord& r : batch) spooler.append(r);
        f.spool_ns += now_ns() - a;
      }));
  // Ordered by flow start, as a collector receives expired flows; in the
  // synthesizer's (component, hour) order most records would land in each
  // hour's last slice.
  const std::uint64_t t0 = now_ns();
  std::vector<flow::FlowRecord> records;
  // Reserved past the expected count so the vector never regrows (growth
  // copies would make peak RSS depend on the seed); std::sort needs no
  // scratch buffer and orders ties the same way on every run.
  records.reserve(target * 3 / 2);
  for (const net::TimeRange& week : analysis_weeks()) {
    synth.synthesize(week, [&](const flow::FlowRecord& r) { records.push_back(r); });
  }
  std::sort(records.begin(), records.end(),
            [](const flow::FlowRecord& x, const flow::FlowRecord& y) {
              return x.first.seconds() < y.first.seconds();
            });
  f.synth_ns = now_ns() - t0;
  for (const flow::FlowRecord& r : records) pump.push(r);
  pump.flush();
  spooler.flush();
  f.records = records.size();
  f.templates = pump.stats().templates;
  return fx;
}

/// Every aggregator of the bundle as text, every figure with all its
/// digits, so a kernel that drops or changes any of its output fails the
/// comparison with the 1-lane scan.
std::string render(Bundle& b) {
  std::string out = analysis::timeseries_table(b.volume.series()).to_csv();
  for (const auto cls : b.heatmap.observed_classes()) {
    out += analysis::heatmap_table(b.heatmap, cls, analysis_weeks().size() - 1).to_csv();
  }
  out += analysis::vpn_profile_table(b.vpn.profiles()).to_csv();
  out += "web share " + num(b.ports.web_share()) + "\n";
  for (const auto& p : b.ports.profiles(b.ports.top_ports(8))) {
    out += p.port.to_string() + "/" + std::to_string(p.week_index);
    for (const double v : p.workday) (out += ' ') += num(v);
    out += " |";
    for (const double v : p.weekend) (out += ' ') += num(v);
    out += "\n";
  }
  out += "hypergiant share " + num(b.hyper.hypergiant_share()) + "\n";
  for (const auto& [asn, bytes] : b.hyper.per_hypergiant_bytes()) {
    out += asn.to_string() + " " + num(bytes) + "\n";
  }
  for (const auto& w : b.hyper.weekly_series(analysis_weeks().front().begin.date().paper_week())) {
    out += std::to_string(w.week) + " " + analysis::to_string(w.slice) + " " +
           num(w.hypergiant) + " " + num(w.other) + "\n";
  }
  for (const auto& m : b.monitors) {
    out += std::to_string(m.records()) + "\n";
    out += analysis::timeseries_table(m.series()).to_csv();
  }
  return out;
}

struct Pass {
  double wall_s = 0;
  std::uint64_t records = 0;
  std::uint64_t read_ns = 0, feed_ns = 0, finish_ns = 0, render_ns = 0;
  SchedTime lanes, feeder;
  double feed_wall_ns = 0;
  std::uint64_t cpu_ns = 0;  ///< whole-process CPU over the pass
  /// Quantiles of the per-slice read_trace latency: the read side of the
  /// spool format, the report's counterpart of the live spool latency.
  /// Feed time is left out: a slice that completes a chunk may wait on a
  /// full lane queue, so the per-slice feed time is bimodal and its p99 sat
  /// on the knee between the two modes, from 0.03 to 0.4 ms pass by pass.
  /// Passes keep only these, so memory does not grow with the pass count.
  double slice_p50_ms = 0, slice_p99_ms = 0;
  /// Digest of the rendered report, kept instead of the text for the same
  /// reason.
  std::uint64_t rendered = 0;
};

const util::SipHashKey kDigestKey{0x70657266ULL, 0x7265706f7274ULL};

/// One pass over every slice, the feeder on the `nth` CPU. `slice_spans`
/// adds two spans per slice to a traced run's log (set on its first pass
/// only: a pass makes ~11,000).
Pass scan_pass(const Fixture& fx, unsigned lanes, bool slice_spans, std::size_t nth) {
  static const std::uint32_t read_id = SpanLog::instance().id("flow", "read_trace");
  static const std::uint32_t feed_id = SpanLog::instance().id("analysis", "feed");
  static const std::uint32_t finish_id = SpanLog::instance().id("analysis", "finish");
  static const std::uint32_t render_id = SpanLog::instance().id("analysis", "render");
  Pass p;
  Samples read_ms;
  const auto before = list_threads();
  analysis::ScanEngine<Bundle> engine(
      lanes, [&fx] { return fx.make_bundle(); }, &fx.registry.trie());
  const auto lane_tids = new_threads(before);
  // The feeder runs the pass on the nth CPU (the lanes, started before,
  // keep the whole set): passes visit every CPU in turn, so a run averages
  // over the virtual CPUs' speeds (see PinToCpu).
  const PinToCpu pin(nth);
  const pid_t self = this_tid();
  const SchedTime lanes0 = sched_time(lane_tids), feeder0 = sched_time({self});
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  for (const auto& image : fx.slices) {
    const std::uint64_t a = now_ns();
    const auto trace = flow::read_trace(image);
    const std::uint64_t b = now_ns();
    if (!trace) throw std::runtime_error("unreadable trace slice");
    engine.feed(trace->records);
    const std::uint64_t c = now_ns();
    p.read_ns += b - a;
    p.feed_ns += c - b;
    p.records += trace->records.size();
    read_ms.add(static_cast<double>(b - a) / 1e6);
    if (slice_spans) {
      SpanLog::instance().emit(read_id, a, b, trace->records.size());
      SpanLog::instance().emit(feed_id, b, c, trace->records.size());
    }
  }
  const std::uint64_t fed = now_ns();
  p.lanes = sched_time(lane_tids) - lanes0;
  p.feeder = sched_time({self}) - feeder0;
  p.feed_wall_ns = static_cast<double>(fed - t0);
  Bundle& merged = engine.finish();
  const std::uint64_t finished = now_ns();
  const std::string text = render(merged);
  const std::uint64_t t1 = now_ns();
  p.cpu_ns = process_cpu_ns() - cpu0;
  p.slice_p50_ms = read_ms.median();
  p.slice_p99_ms = read_ms.quantile(0.99);
  p.rendered = util::siphash24(
      kDigestKey, std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  p.finish_ns = finished - fed;
  p.render_ns = t1 - finished;
  p.wall_s = static_cast<double>(t1 - t0) / 1e9;
  SpanLog::instance().emit(finish_id, fed, finished);
  SpanLog::instance().emit(render_id, finished, t1);
  return p;
}

struct Summary {
  double records_per_s = 0, cpu_ns_per_record = 0, p50_ms = 0, p99_ms = 0;
  double steal = 0;  ///< share of CPU time the hypervisor withheld
  std::uint64_t attempted = 0;
  std::vector<Pass> passes;
};

/// kPassesPerSecond scan passes per second of `seconds` (at least 3).
/// Every figure is the interquartile mean over passes of that pass's
/// value, so a pass a host stall hit does not move the run.
Summary measure(const Fixture& fx, double seconds, bool tiny) {
  Summary s;
  const std::uint64_t start = now_ns();
  const std::uint64_t steal0 = steal_ns();
  const std::size_t passes =
      tiny ? 3 : std::max<std::size_t>(3, std::lround(seconds * kPassesPerSecond));
  while (s.passes.size() < passes) {
    s.passes.push_back(scan_pass(fx, kScanLanes, s.passes.empty(), s.passes.size()));
  }
  Samples rates, cpu, p50, p99;
  for (const Pass& p : s.passes) {
    const double n = static_cast<double>(p.records);
    rates.add(n / p.wall_s);
    cpu.add(static_cast<double>(p.cpu_ns) / n);
    p50.add(p.slice_p50_ms);
    p99.add(p.slice_p99_ms);
    s.attempted += p.records;
  }
  s.steal = steal_share(steal0, static_cast<double>(now_ns() - start));
  s.records_per_s = rates.iqm();
  s.cpu_ns_per_record = cpu.iqm();
  s.p50_ms = p50.iqm();
  s.p99_ms = p99.iqm();
  std::cout << "  " << s.passes.size() << " scan passes of " << fx.records
            << " records in " << fx.slices.size()
            << " slices (interquartile means over passes): records/s "
            << num(s.records_per_s) << " (min " << num(rates.quantile(0.0))
            << ", max " << num(rates.quantile(1.0)) << "); slice read_trace latency p50 "
            << num(s.p50_ms) << " ms, p99 " << num(s.p99_ms) << " ms (per-pass p99 from "
            << num(p99.quantile(0)) << " to " << num(p99.quantile(1)) << "); CPU steal share "
            << num(s.steal) << "\n";
  return s;
}

/// Isolated add_batch cost of each aggregator over prebuilt columns.
struct AggCosts {
  double columns = 0, volume = 0, ports = 0, hyper = 0, heatmap = 0, vpn = 0,
         monitors = 0;
};

AggCosts isolated_aggregators(const Fixture& fx) {
  static const std::uint32_t id = SpanLog::instance().id("layer", "isolated");
  std::vector<flow::FlowRecord> records;
  for (const auto& image : fx.slices) {
    const auto trace = flow::read_trace(image);
    records.insert(records.end(), trace->records.begin(), trace->records.end());
    if (records.size() >= kIsolatedRecords) break;
  }
  const std::size_t chunk = analysis::ScanPool::kDefaultChunkRecords;
  std::vector<filter::FlowColumns> cols((records.size() + chunk - 1) / chunk);
  const auto chunk_of = [&](std::size_t i) {
    const std::size_t off = i * chunk;
    return std::span<const flow::FlowRecord>(records).subspan(
        off, std::min(chunk, records.size() - off));
  };
  const double n = static_cast<double>(std::max<std::size_t>(records.size(), 1));
  const auto time3 = [&](auto&& fn) {
    Samples s;
    for (int rep = 0; rep < 3; ++rep) {
      Bundle b = fx.make_bundle();
      const Span span(id);
      const std::uint64_t a = now_ns();
      for (std::size_t i = 0; i < cols.size(); ++i) fn(b, chunk_of(i), cols[i]);
      s.add(static_cast<double>(now_ns() - a) / n);
    }
    return s.median();
  };
  AggCosts c;
  c.columns = time3([&](Bundle&, std::span<const flow::FlowRecord> r,
                        filter::FlowColumns& col) { col.build(r, &fx.registry.trie()); });
  c.volume = time3([](Bundle& b, auto r, const auto& col) { b.volume.add_batch(r, col); });
  c.ports = time3([](Bundle& b, auto r, const auto& col) { b.ports.add_batch(r, col); });
  c.hyper = time3([](Bundle& b, auto r, const auto& col) { b.hyper.add_batch(r, col); });
  c.heatmap = time3([](Bundle& b, auto r, const auto& col) { b.heatmap.add_batch(r, col); });
  c.vpn = time3([](Bundle& b, auto r, const auto& col) { b.vpn.add_batch(r, col); });
  c.monitors = time3([](Bundle& b, auto r, const auto& col) {
    for (auto& m : b.monitors) m.add_batch(r, col);
  });
  return c;
}

}  // namespace

Outcome run_report_from_slices(const RunConfig& cfg) {
  static const std::uint32_t setup_id = SpanLog::instance().id("setup", "setup");
  const std::size_t target = cfg.tiny ? kTinyRecords : kRecords;
  // Set-up is timed repeatedly (kSetups, kSetupSeconds), each time on the
  // next CPU; the median is setup_s and the last fixture is kept.
  std::unique_ptr<Fixture> fx;
  const bool once = cfg.tiny || cfg.trace;
  const Samples setup_s = timed_runs(once ? 1 : kSetups, once ? 0 : kSetupSeconds, [&] {
    fx.reset();
    const Span s(setup_id);
    fx = build_fixture(cfg.seed, target);
  });
  std::size_t image_bytes = 0;
  for (const auto& s : fx->slices) image_bytes += s.size();
  std::cout << "  setup: " << fx->records << " records spooled into "
            << fx->slices.size() << " slices (" << image_bytes << " bytes); setup_s "
            << num(setup_s.median()) << " (median of " << setup_s.count() << ", min "
            << num(setup_s.quantile(0)) << ", max " << num(setup_s.quantile(1)) << ")\n";
  const PeakRssGrowth rss;

  std::cout << " untraced passes:\n";
  Summary plain = measure(*fx, cfg.trace ? cfg.seconds / 2 : cfg.seconds, cfg.tiny);
  Summary traced;
  if (cfg.trace) {
    std::cout << " traced passes:\n";
    SpanLog::instance().name_thread("feeder");
    traced = measure(*fx, cfg.seconds / 2, cfg.tiny);
  }

  const double peak_rss_mb = rss.growth_mib();
  // Output check, after the timed phase: an inline 1-lane scan.
  const std::uint64_t want = scan_pass(*fx, 1, false, 0).rendered;
  Outcome out;
  for (const Summary* s : {&plain, &traced}) {
    for (const Pass& p : s->passes) {
      if (p.rendered != want) out.correct = false;
    }
  }
  out.attempted = plain.attempted + traced.attempted;
  out.failed = out.correct ? 0 : out.attempted;
  for (const Summary* s : {&plain, &traced}) {
    if (s->steal > kMaxStealShare) {
      out.invalid.push_back("the hypervisor withheld " + num(s->steal) +
                            " of the CPU time");
    }
  }
  std::cout << "  output check (rendered report vs inline 1-lane scan): "
            << (out.correct ? "PASS" : "FAIL") << "\n";
  out.end_to_end = {
      {"records_per_s", plain.records_per_s},
      {"cpu_ns_per_record", plain.cpu_ns_per_record},
      {"spool_p50_ms", plain.p50_ms},
      {"spool_p99_ms", plain.p99_ms},
      {"setup_s", setup_s.median()},
      {"peak_rss_mb", peak_rss_mb},
  };
  if (!cfg.trace) return out;

  const AggCosts agg = isolated_aggregators(*fx);
  Pass sum;
  Samples finish_ms, render_ms;
  for (const Pass& p : traced.passes) {
    sum.records += p.records;
    sum.read_ns += p.read_ns;
    sum.feed_ns += p.feed_ns;
    sum.lanes += p.lanes;
    sum.feeder += p.feeder;
    sum.feed_wall_ns += p.feed_wall_ns;
    finish_ms.add(static_cast<double>(p.finish_ns) / 1e6);
    render_ms.add(static_cast<double>(p.render_ns) / 1e6);
  }
  const double rec = static_cast<double>(std::max<std::uint64_t>(sum.records, 1));
  const double lanes = static_cast<double>(kScanLanes);
  const double lane_busy = static_cast<double>(sum.lanes.run_ns) / (sum.feed_wall_ns * lanes);
  const double feeder_busy = static_cast<double>(sum.feeder.run_ns) / sum.feed_wall_ns;
  const auto per_fixture_record = [&](std::uint64_t ns) {
    return ratio(static_cast<double>(ns), static_cast<double>(fx->records));
  };
  out.per_layer = {
      {"synth.ns_per_record", per_fixture_record(fx->synth_ns)},
      {"flow.decode.templates", static_cast<double>(fx->templates)},
      {"flow.spool.ns_per_record", per_fixture_record(fx->spool_ns)},
      {"flow.spool.slices", static_cast<double>(fx->slices.size())},
      {"flow.trace.read_ns_per_record", static_cast<double>(sum.read_ns) / rec},
      {"filter.columns.ns_per_record", agg.columns},
      {"analysis.scan.feed_ns_per_record", static_cast<double>(sum.feed_ns) / rec},
      {"analysis.scan.lane_busy_frac", lane_busy},
      {"analysis.scan.finish_ms", finish_ms.median()},
      {"analysis.render_ms", render_ms.median()},
      {"analysis.agg.volume.ns_per_record", agg.volume},
      {"analysis.agg.ports.ns_per_record", agg.ports},
      {"analysis.agg.hypergiants.ns_per_record", agg.hyper},
      {"analysis.agg.heatmap.ns_per_record", agg.heatmap},
      {"analysis.agg.vpn.ns_per_record", agg.vpn},
      {"analysis.agg.monitors.ns_per_record", agg.monitors},
  };
  // No network, runtime or stream code runs; set-up encodes and decodes
  // inside ExportPump, but only its spool is timed.
  out.not_applicable = {
      "flow.encode.ns_per_record", "flow.decode.ns_per_record",
      "flow.decode.ns_per_datagram", "flow.decode.malformed",
      "net.wire.datagrams_per_syscall", "net.wire.kernel_drops", "net.wire.truncated",
      "net.wire.cpu_ns_per_datagram", "net.wire.busy_frac", "net.wire.runq_wait_frac",
      "runtime.ring_dropped", "runtime.queue_high_water", "runtime.arena_reuse_ratio",
      "runtime.shard.cpu_ns_per_record", "runtime.shard.busy_frac",
      "runtime.shard.runq_wait_frac", "runtime.shard_skew", "runtime.release_lag_p99_ms",
      "filter.route.ns_per_record", "filter.match.ns_per_record", "filter.hits_per_record",
      "stream.window.ns_per_record", "stream.poll_us", "stream.windows",
      "stream.window_lag_p99_ms", "obs.snapshot_us", "gen.late_p99_ms",
      "gen.cpu_ns_per_datagram"};

  const auto row = [](const std::string& a, double v) {
    return std::vector<std::string>{a, num(std::round(v * 10) / 10)};
  };
  const double read = static_cast<double>(sum.read_ns) / rec;
  const double feed = static_cast<double>(sum.feed_ns) / rec;
  const double feeder_cpu = static_cast<double>(sum.feeder.run_ns) / rec;
  print_table("budget, report_from_slices: feeder thread, ns/record",
              {{"layer", "ns/record"},
               row("flow.trace read_trace", read),
               row("analysis.scan feed (chunk copy + queue wait)", feed),
               row("attributed (read + feed)", read + feed),
               row("measured feeder CPU (schedstat)", feeder_cpu),
               row("unattributed (feed time off-CPU counts negative)", feeder_cpu - read - feed)});
  const double aggs = agg.columns + agg.volume + agg.ports + agg.hyper + agg.heatmap +
                      agg.vpn + agg.monitors;
  const double lane_cpu = static_cast<double>(sum.lanes.run_ns) / rec;
  print_table("budget, report_from_slices: scan lanes (all lanes), ns/record",
              {{"layer", "ns/record"},
               row("filter.columns", agg.columns),
               row("analysis.agg.volume", agg.volume),
               row("analysis.agg.ports", agg.ports),
               row("analysis.agg.hypergiants", agg.hyper),
               row("analysis.agg.heatmap", agg.heatmap),
               row("analysis.agg.vpn", agg.vpn),
               row("analysis.agg.monitors", agg.monitors),
               row("attributed", aggs),
               row("measured lane CPU (schedstat)", lane_cpu),
               row("unattributed (queues, chunk hand-off)", lane_cpu - aggs)});
  std::cout << "  lane scaling: feeder busy " << num(std::round(feeder_busy * 1000) / 1000)
            << ", each of " << kScanLanes << " lanes busy "
            << num(std::round(lane_busy * 1000) / 1000) << " -> "
            << (feeder_busy > 0.85 && lane_busy < 0.85
                    ? "feeder-bound: more lanes cannot help until read+feed shrinks"
                    : lane_busy >= 0.85 ? "lane-bound: more lanes (or cheaper aggregators) help"
                                        : "neither thread saturated")
            << "\n";
  const auto overhead = [](double t, double u) {
    return u == 0 ? std::string("-") : num(std::round((t / u - 1) * 1000) / 10) + "%";
  };
  print_table("tracing overhead (traced vs untraced passes of this run)",
              {{"metric", "untraced", "traced", "change"},
               {"records_per_s", num(plain.records_per_s), num(traced.records_per_s),
                overhead(traced.records_per_s, plain.records_per_s)},
               {"cpu_ns_per_record", num(plain.cpu_ns_per_record),
                num(traced.cpu_ns_per_record),
                overhead(traced.cpu_ns_per_record, plain.cpu_ns_per_record)},
               {"spool_p50_ms", num(plain.p50_ms), num(traced.p50_ms),
                overhead(traced.p50_ms, plain.p50_ms)},
               {"spool_p99_ms", num(plain.p99_ms), num(traced.p99_ms),
                overhead(traced.p99_ms, plain.p99_ms)}});
  return out;
}

}  // namespace perfbench
