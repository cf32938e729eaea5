// lockdown_shift: detect the paper's lockdown effect *online*.
//
// The paper finds the March 2020 change-point offline, by diffing
// week-long batch aggregates before and after the lockdown (Feldmann et
// al., IMC 2020 §3). This demo shows the streaming layer catching the same
// shift as it happens: a monitoring object watches enterprise-VPN traffic
// (the remote-work signature) in the mixed campus+VPN scenario, a
// day-window aggregator rotates on flow time, and a K=7 moving average
// with an overlimit threshold fires the moment a day's flow count exceeds
// the trailing week's mean -- while the stream is still running.
//
// Validation: the identical stream is then baselined offline -- daily
// sums over the raw synthesized records, same trailing-K mean, same
// threshold -- and the demo fails (non-zero exit) unless the online
// detector flagged the change-point within one window of the offline one.
// The online path is the real deployment shape: records travel through
// the IPFIX encoder, the wire decoder, and MonitorSet::route_batch before
// the window layer ever sees them.
//
//   $ ./lockdown_shift [--rate CONN_PER_HOUR] [--mavg K] [--over FACTOR]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "filter/monitor.hpp"
#include "flow/ipfix.hpp"
#include "flow/pipeline.hpp"
#include "net/civil_time.hpp"
#include "stream/engine.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/timeline.hpp"
#include "synth/vantage.hpp"
#include "util/table.hpp"

using namespace lockdown;

int main(int argc, char** argv) {
  double rate = 200.0;  // connections per hour
  std::size_t k = 7;    // one full week: weekday phase cancels out
  double over = 1.25;   // fire at 25% above the trailing week's mean
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rate" && i + 1 < argc) {
      rate = std::atof(argv[++i]);
    } else if (arg == "--mavg" && i + 1 < argc) {
      k = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--over" && i + 1 < argc) {
      over = std::atof(argv[++i]);
    }
  }

  const auto registry = synth::AsRegistry::create_default();
  const auto model = synth::build_mixed_scenario(registry, {.seed = 42});
  const auto timeline =
      synth::EpidemicTimeline::for_region(synth::Region::kCentralEurope);

  // Seven weeks around the Central European lockdown: two calm baseline
  // weeks, the ramp (Mar 13 - Mar 22), and the full-lockdown plateau.
  const net::TimeRange range{
      net::Timestamp::from_date(net::Date(2020, 2, 17)),
      net::Timestamp::from_date(net::Date(2020, 4, 5))};

  // --- Online path -----------------------------------------------------------
  filter::MonitorSet monitors(&registry.trie());
  const auto& vpn =
      monitors.add("vpn", "proto udp and dst port 1194,4500,500");

  stream::StreamConfig scfg;
  scfg.window.window_seconds = net::kSecondsPerDay;
  scfg.mavg = stream::MavgConfig{
      .k = k, .metric = stream::MavgMetric::kFlows, .overlimit = over};
  stream::StreamMonitor streamer(monitors, scfg);

  std::vector<stream::MavgEvent> online_events;
  streamer.set_event_sink(
      [&](const stream::ObjectStream& os, const stream::MavgEvent& e) {
        online_events.push_back(e);
        std::cout << "  " << stream::StreamMonitor::format_event(os, e)
                  << "\n";
      });

  // The deployment pipeline, in-process: IPFIX encode -> wire decode ->
  // monitor routing -> window hooks. This demo is about the stream, not the
  // spool, so the decoder feeds the monitoring objects directly.
  flow::Collector collector(flow::ExportProtocol::kIpfix,
                            monitors.batch_sink());
  flow::IpfixEncoder encoder(700);
  flow::PacketBatch packets;
  std::vector<flow::FlowRecord> batch;
  std::vector<flow::FlowRecord> raw;  // kept for the offline baseline
  const auto ship = [&]() {
    if (batch.empty()) return;
    packets.clear();
    encoder.encode_batch(batch, flow::batch_export_time(batch), packets);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      collector.ingest(packets.packet(i));
    }
    batch.clear();
    (void)streamer.poll();  // consume completed windows as we go
  };

  std::cout << "streaming " << range.begin.date().to_string() << " .. "
            << range.end.date().to_string() << " (" << rate
            << " conn/h, lockdown ramp "
            << timeline.lockdown_start.to_string() << " -> "
            << timeline.lockdown_full.to_string() << ")\n";
  std::cout << "online detector: day windows, mavg k=" << k << ", overlimit "
            << over << "x on object 'vpn'\n";

  const synth::FlowSynthesizer synth(model, registry,
                                     {.connections_per_hour = rate});
  synth.synthesize(range, [&](const flow::FlowRecord& r) {
    raw.push_back(r);
    batch.push_back(r);
    if (batch.size() == 64) ship();
  });
  ship();
  streamer.flush();
  (void)streamer.poll();

  // --- Offline baseline ------------------------------------------------------
  // Same stream, same filter, same rule -- but as the paper would do it:
  // batch-aggregate the raw records per day, then scan.
  std::map<std::int64_t, std::uint64_t> daily;
  for (const auto& r : raw) {
    if (vpn.filter().match(r)) ++daily[r.first.floor_day().seconds()];
  }
  std::vector<std::pair<std::int64_t, std::uint64_t>> days(daily.begin(),
                                                           daily.end());
  std::optional<std::int64_t> offline_day;
  util::Table table({"day", "type", "vpn flows", "trailing mean", "flag"});
  double sum = 0.0;
  for (std::size_t i = 0; i < days.size(); ++i) {
    const double v = static_cast<double>(days[i].second);
    std::string mean_cell = "-";
    std::string flag;
    if (i >= k) {
      const double mean = sum / static_cast<double>(k);
      mean_cell = std::to_string(mean);
      if (v > mean * over) {
        flag = "OVER";
        if (!offline_day) offline_day = days[i].first;
      }
      sum -= static_cast<double>(days[i - k].second);
    }
    sum += v;
    const net::Date d = net::Timestamp(days[i].first).date();
    table.add_row({d.to_string(),
                   synth::behaves_like_weekend(d) ? "weekend" : "workday",
                   std::to_string(days[i].second), mean_cell, flag});
  }
  std::cout << "\noffline baseline (identical rule over raw records):\n"
            << table.to_text();

  // --- Verdict ---------------------------------------------------------------
  if (!offline_day) {
    std::cerr << "FAIL: offline baseline found no change-point\n";
    return 1;
  }
  if (online_events.empty()) {
    std::cerr << "FAIL: online detector never fired (offline flagged "
              << net::Timestamp(*offline_day).date().to_string() << ")\n";
    return 1;
  }
  const std::int64_t online_day =
      online_events.front().window_begin.seconds();
  const std::int64_t delta =
      (online_day - *offline_day) / net::kSecondsPerDay;
  std::cout << "\nonline first fired:  "
            << net::Timestamp(online_day).date().to_string() << "\n"
            << "offline change-point: "
            << net::Timestamp(*offline_day).date().to_string() << " (delta "
            << delta << " window" << (delta == 1 || delta == -1 ? "" : "s")
            << ")\n";
  if (delta < -1 || delta > 1) {
    std::cerr << "FAIL: online detector off by more than one window\n";
    return 1;
  }
  std::cout << "OK: online detection matches the offline baseline within one "
               "window\n";
  return 0;
}
