// live_collector: the deployment shape of this library -- an IPFIX
// exporter streaming over real UDP sockets into a rotating collector
// daemon that anonymizes on arrival and spools 15-minute trace slices to
// disk, followed by an analysis pass over the spooled slices.
//
// Everything runs in one process over the loopback interface so the
// example is self-contained, but the three roles (exporter, collector,
// analyst) only communicate through datagrams and trace files -- exactly
// how they would be split across machines.
//
// The collector is runtime::ShardedCollectorDaemon fed by
// runtime::WirePlane (src/net/eventloop/ + src/runtime/): epoll wire
// threads batch-receive with recvmmsg straight into pooled arena buffers,
// decode and anonymization run on worker shards keyed by export source,
// and the daemon's arrival-ticket merge keeps the slices deterministic.
// The defaults are one wire thread and one shard. --shards N fans decode
// out to N shards; the engine's backpressure/drop counters are reported
// at the end. --wire-threads N opens N SO_REUSEPORT sockets, each drained
// by its own wire thread, and also defaults to N shards when --shards is
// absent. The exporter opens one sender socket per observation domain so
// the kernel's 4-tuple hash actually spreads the stream across the lanes.
// Every lane and shard count spools byte-identical slices.
//
// With --metrics the collector binds its counters into an obs::Registry:
// a snapshot line is printed periodically while the stream runs, and the
// full Prometheus text exposition is dumped at the end of the run.
//
// With --gen-threads N the exporter synthesizes its flow stream on N
// worker threads; the delivered stream (and thus every datagram) is
// byte-identical to the single-threaded one.
//
// With --listen PORT the process becomes an inspectable service: an HTTP
// exposer serves GET /metrics (live Prometheus text), GET /healthz (shard
// liveness, ring occupancy, sequence loss as JSON), GET /trace?ms=N
// (capture N ms of pipeline spans as Chrome Trace Event JSON),
// GET /history?series=G&window=S (recorded metrics history, when --history
// is on), and GET /profile?seconds=N&hz=H (folded CPU stacks from the
// sampling profiler). --listen implies --metrics. --trace-out FILE writes
// the whole run's span trace to FILE at exit (load it in Perfetto /
// chrome://tracing); --linger-ms N keeps the exposer serving for N ms
// after the run so external scrapers can catch a short-lived process.
//
// With --history MS the flight recorder samples every metric series into
// fixed-size history rings every MS milliseconds (obs/recorder.hpp);
// --history-out FILE additionally journals rotated CSVs to FILE.<stamp>.csv
// while running and dumps the full retained history to FILE on clean
// shutdown. --profile-hz H arms the sampling CPU profiler for the whole
// run and prints where the time went at the end.
//
// With --monitor 'name=expr' (repeatable) the collector routes every
// decoded batch through compiled monitoring objects (src/filter/): each
// object owns one filter-DSL expression and counts the flows, bytes and
// packets that match it. Counters appear on /metrics and /healthz while
// the stream runs and are printed (then cleanly unregistered) at the end.
// --monitor-file FILE loads 'name = expression' lines from a file.
//
// With --window SECONDS the monitoring objects stream: every object gets a
// double-banked window aggregator (src/stream/), rotated on flow time, and
// completed windows are drained in the ship loop. --window-key picks the
// aggregation tuple (e.g. 'dst_as,service'; default scalar totals);
// --window-csv FILE exports every completed window as CSV. --mavg K arms a
// moving-average watch over the last K windows: --mavg-over F /
// --mavg-under F fire when a window's value crosses F times the average of
// the windows before it (counters + log lines), --mavg-metric picks
// flows|bytes|packets, --mavg-ewma ALPHA switches to an EWMA. Window state
// is served on /healthz next to the monitor totals.
//
// With --flow-sampling N the exporter keeps every Nth flow (systematic
// 1-in-N, bytes/packets rescaled inside the surviving records) and the
// collector-side monitor + stream layers rescale flow *counts* by N --
// the sampler contract documented in filter/monitor.hpp.
//
//   $ ./live_collector [output-dir] [--shards N] [--wire-threads N]
//                      [--gen-threads N] [--metrics]
//                      [--listen PORT] [--trace-out FILE] [--linger-ms N]
//                      [--history MS] [--history-out FILE] [--profile-hz H]
//                      [--monitor 'vpn=dst port 1194,443 and proto udp']...
//                      [--monitor-file FILE] [--flow-sampling N]
//                      [--window SECONDS] [--window-key dst_as,service]
//                      [--window-csv FILE] [--mavg K] [--mavg-over F]
//                      [--mavg-under F] [--mavg-metric flows|bytes|packets]
//                      [--mavg-ewma ALPHA]
#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "analysis/app_filter.hpp"
#include "analysis/volume.hpp"
#include "filter/monitor.hpp"
#include "filter/plan.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/ipfix.hpp"
#include "flow/sampler.hpp"
#include "flow/trace_file.hpp"
#include "flow/udp_transport.hpp"
#include "net/eventloop/udp_batch_socket.hpp"
#include "obs/build_info.hpp"
#include "obs/http_exposer.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "obs/watermark.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/wire_plane.hpp"
#include "stream/engine.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace lockdown;

int main(int argc, char** argv) {
  std::filesystem::path out_dir =
      std::filesystem::temp_directory_path() / "lockdown_slices";
  std::optional<std::size_t> shards;  // unset = one per wire thread
  std::size_t wire_threads = 1;
  std::size_t gen_threads = 1;
  bool metrics_enabled = false;
  int listen_port = -1;  // -1 = no exposer
  std::string trace_out;
  long linger_ms = 0;
  long history_ms = 0;  // 0 = no flight recorder
  std::string history_out;
  long profile_hz = 0;  // 0 = profiler off
  std::vector<std::string> monitor_args;
  std::vector<std::string> monitor_files;
  long window_seconds = 0;  // 0 = no streaming layer
  std::string window_key_csv;
  std::string window_csv_path;
  long mavg_k = 0;  // 0 = no moving-average watch
  double mavg_over = 0.0;
  double mavg_under = 0.0;
  std::string mavg_metric_name = "flows";
  double mavg_ewma_alpha = 0.0;  // > 0 switches to EWMA
  long flow_sampling = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--wire-threads" && i + 1 < argc) {
      wire_threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--gen-threads" && i + 1 < argc) {
      gen_threads = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (arg == "--metrics") {
      metrics_enabled = true;
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
      metrics_enabled = true;  // a scrape endpoint without metrics is empty
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--linger-ms" && i + 1 < argc) {
      linger_ms = std::atol(argv[++i]);
    } else if (arg == "--history" && i + 1 < argc) {
      history_ms = std::atol(argv[++i]);
      metrics_enabled = true;  // the recorder samples the registry
    } else if (arg == "--history-out" && i + 1 < argc) {
      history_out = argv[++i];
    } else if (arg == "--profile-hz" && i + 1 < argc) {
      profile_hz = std::atol(argv[++i]);
    } else if (arg == "--monitor" && i + 1 < argc) {
      monitor_args.emplace_back(argv[++i]);
    } else if (arg == "--monitor-file" && i + 1 < argc) {
      monitor_files.emplace_back(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      window_seconds = std::atol(argv[++i]);
    } else if (arg == "--window-key" && i + 1 < argc) {
      window_key_csv = argv[++i];
    } else if (arg == "--window-csv" && i + 1 < argc) {
      window_csv_path = argv[++i];
    } else if (arg == "--mavg" && i + 1 < argc) {
      mavg_k = std::atol(argv[++i]);
    } else if (arg == "--mavg-over" && i + 1 < argc) {
      mavg_over = std::atof(argv[++i]);
    } else if (arg == "--mavg-under" && i + 1 < argc) {
      mavg_under = std::atof(argv[++i]);
    } else if (arg == "--mavg-metric" && i + 1 < argc) {
      mavg_metric_name = argv[++i];
    } else if (arg == "--mavg-ewma" && i + 1 < argc) {
      mavg_ewma_alpha = std::atof(argv[++i]);
    } else if (arg == "--flow-sampling" && i + 1 < argc) {
      flow_sampling = std::atol(argv[++i]);
    } else {
      out_dir = arg;
    }
  }
  std::filesystem::create_directories(out_dir);
  obs::Registry obs_registry;
  obs::Registry* metrics = metrics_enabled ? &obs_registry : nullptr;
  if (metrics != nullptr) obs::register_build_info(obs_registry);
  obs::Tracer::instance().set_this_thread_name("wire");

  // --- Flight recorder -------------------------------------------------------
  // Declared right after the registry (and before everything that binds
  // metrics into it) so its sampling sees the whole lifecycle and it is
  // destroyed last. The exposer's tick drives the sampling clock when
  // --listen is active; otherwise the recorder runs its own thread.
  std::optional<obs::MetricsRecorder> recorder;
  if (history_ms > 0) {
    obs::RecorderConfig rcfg;
    rcfg.interval = std::chrono::milliseconds(history_ms);
    rcfg.journal_path = history_out;
    recorder.emplace(obs_registry, rcfg);
    std::cout << "flight recorder sampling every " << history_ms << " ms ("
              << rcfg.capacity << "-sample rings"
              << (history_out.empty() ? std::string{}
                                      : ", journal -> " + history_out)
              << ")\n";
  }

  // The AS registry backs both the synthesizer (exporter side) and the
  // monitoring objects' ASN lookups (collector side), so it comes first.
  const auto registry = synth::AsRegistry::create_default();

  // --- Monitoring objects --------------------------------------------------
  // Compiled once at startup; route_batch then runs inside the collector's
  // ingest path on the worker shards, which is safe: the counters are
  // commutative atomic sums.
  filter::MonitorSet monitors(&registry.trie());
  try {
    for (const std::string& def : monitor_args) {
      const auto eq = def.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "error: --monitor expects name=expression, got '" << def
                  << "'\n";
        return 1;
      }
      monitors.add(def.substr(0, eq), def.substr(eq + 1));
    }
    for (const std::string& file : monitor_files) {
      std::FILE* f = std::fopen(file.c_str(), "rb");
      if (f == nullptr) {
        std::cerr << "error: cannot read monitor file " << file << "\n";
        return 1;
      }
      std::string text;
      std::array<char, 4096> chunk;
      std::size_t n = 0;
      while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
        text.append(chunk.data(), n);
      }
      std::fclose(f);
      monitors.add_definitions(text, file);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!monitors.empty()) {
    std::cout << monitors.size() << " monitoring object(s):\n";
    for (const auto& object : monitors) {
      std::cout << "  " << object->name() << " = " << object->filter().source()
                << "\n";
    }
    if (metrics != nullptr) monitors.bind_metrics(obs_registry);
  }
  if (flow_sampling > 1) {
    // Exporter-side 1-in-N sampling rescales bytes/packets per record; the
    // collector-side layers only need the flow-count side of the contract.
    monitors.set_flow_scale(static_cast<double>(flow_sampling));
  }

  // --- Streaming windows -----------------------------------------------------
  // Declared after `monitors` (and before the daemon): the destructor
  // detaches the per-object hooks, so it must run before MonitorSet's.
  std::optional<stream::StreamMonitor> streamer;
  std::optional<util::Table> window_table;
  if (window_seconds > 0) {
    if (monitors.empty()) {
      std::cerr << "error: --window needs at least one --monitor object\n";
      return 1;
    }
    stream::StreamConfig scfg;
    scfg.window.window_seconds = window_seconds;
    const auto key = stream::parse_key_tuple(window_key_csv);
    if (!key) {
      std::cerr << "error: bad --window-key '" << window_key_csv << "'\n";
      return 1;
    }
    scfg.window.key = *key;
    if (mavg_k > 0) {
      const auto metric = stream::parse_mavg_metric(mavg_metric_name);
      if (!metric) {
        std::cerr << "error: bad --mavg-metric '" << mavg_metric_name << "'\n";
        return 1;
      }
      scfg.mavg = stream::MavgConfig{
          .k = static_cast<std::size_t>(mavg_k),
          .metric = *metric,
          .ewma = mavg_ewma_alpha > 0.0,
          .alpha = mavg_ewma_alpha > 0.0 ? mavg_ewma_alpha : 0.25,
          .overlimit = mavg_over,
          .underlimit = mavg_under};
    }
    try {
      streamer.emplace(monitors, scfg);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (flow_sampling > 1) {
      streamer->set_flow_scale(static_cast<double>(flow_sampling));
    }
    if (metrics != nullptr) streamer->bind_metrics(obs_registry);
    if (!window_csv_path.empty()) {
      window_table.emplace(std::vector<std::string>{
          "object", "window", "seq", "key", "flows", "bytes", "packets"});
      streamer->set_window_sink([&](const stream::ObjectStream& os,
                                    const stream::WindowResult& r) {
        const auto& tuple = streamer->config().window.key;
        window_table->add_row({os.name(), r.begin.to_string(),
                               std::to_string(r.seq), "*",
                               std::to_string(r.total.flows),
                               std::to_string(r.total.bytes),
                               std::to_string(r.total.packets)});
        auto rows = r.rows;
        std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
          return a.first < b.first;
        });
        for (const auto& [k, acc] : rows) {
          window_table->add_row({os.name(), r.begin.to_string(),
                                 std::to_string(r.seq),
                                 stream::key_to_string(tuple, k),
                                 std::to_string(acc.flows),
                                 std::to_string(acc.bytes),
                                 std::to_string(acc.packets)});
        }
      });
    }
    std::cout << "streaming windows: " << window_seconds << "s"
              << (scfg.window.key.empty() ? "" : ", key=" + window_key_csv);
    if (scfg.mavg) {
      std::cout << ", mavg k=" << scfg.mavg->k << " metric="
                << stream::to_string(scfg.mavg->metric)
                << (scfg.mavg->ewma ? " (ewma)" : "");
    }
    std::cout << "\n";
  }

  // --- Collector side ------------------------------------------------------
  const flow::Anonymizer anonymizer({0x10cd0ULL, 0xeffec7ULL},
                                    flow::AnonymizationMode::kPrefixPreserving);
  // The sink runs on a wire lane thread (serialized by the daemon's merge
  // lock); failures are only collected here and reported once the plane
  // has stopped.
  std::vector<std::filesystem::path> slice_paths;
  std::vector<std::string> slice_errors;
  const auto slice_sink = [&](flow::TraceSlice&& slice) {
    const auto path =
        out_dir / ("slice-" + std::to_string(slice.begin.seconds()) + ".lft");
    const std::string err =
        util::write_whole_file(path.string(), slice.image.data(), slice.image.size());
    if (err.empty()) {
      slice_paths.push_back(path);
    } else {
      slice_errors.push_back(path.string() + ": " + err);
    }
  };

  // Monitoring objects observe every decoded (and already anonymized)
  // batch; an empty set wires no observer at all.
  flow::Collector::BatchSink monitor_sink;
  if (!monitors.empty()) monitor_sink = monitors.batch_sink();

  runtime::ShardedCollectorDaemon daemon(
      runtime::ShardedDaemonConfig{.protocol = flow::ExportProtocol::kIpfix,
                                   .shards = shards.value_or(wire_threads),
                                   .rotation_seconds = 15 * 60,
                                   .anonymizer = &anonymizer,
                                   .wire_lanes = wire_threads,
                                   .metrics = metrics,
                                   .batch_observer = monitor_sink},
      slice_sink);

  // 1 MiB socket buffer per lane (the plane's default request): the wire
  // threads share cores with the exporter in this self-contained setup,
  // so give the kernel room to queue.
  runtime::WirePlaneConfig pcfg;
  pcfg.lanes = wire_threads;
  pcfg.metrics = metrics;
  const std::unique_ptr<runtime::WirePlane> plane =
      runtime::WirePlane::create(pcfg, daemon);
  if (!plane) {
    std::cerr << "error: cannot bind the wire-plane sockets\n";
    return 1;
  }
  std::cout << "collector listening on 127.0.0.1:" << plane->port()
            << " (rcvbuf " << plane->rcvbuf_bytes() << " bytes, "
            << plane->lanes() << " epoll lane(s), "
            << (plane->reuseport_active() ? "SO_REUSEPORT"
                                          : "single socket")
            << ", "
            << (net::UdpBatchSocket::batch_receive_supported()
                    ? "recvmmsg"
                    : "recvmsg fallback")
            << ", " << daemon.engine_snapshot().shards.size()
            << " worker shard(s))\n";

  // --- Observability endpoint ----------------------------------------------
  // The health and scrape callbacks run on the exposer's listener thread
  // while the pipeline runs, so they only touch thread-safe state: the
  // registry (mutex), EngineStats snapshots (atomics), arena stats (mutex),
  // and the tracer (lock-free rings + mutex).
  std::unique_ptr<obs::HttpExposer> exposer;
  if (listen_port >= 0) {
    obs::HttpExposerConfig cfg;
    cfg.port = static_cast<std::uint16_t>(listen_port);
    cfg.registry = &obs_registry;
    cfg.health = [&]() {
      const runtime::EngineSnapshot e = daemon.engine_snapshot();
      std::string j = "{\"status\":\"ok\"";
      j += ",\"wire_datagrams\":" + std::to_string(e.wire_datagrams);
      j += ",\"records\":" + std::to_string(e.records);
      j += ",\"sequence_lost\":" + std::to_string(e.sequence_lost);
      j += ",\"ring_dropped\":" + std::to_string(e.dropped);
      j += ",\"queue_high_water\":" + std::to_string(e.queue_high_water);
      j += ",\"wire_plane\":{\"lanes\":" + std::to_string(plane->lanes());
      j += ",\"reuseport\":";
      j += plane->reuseport_active() ? "true" : "false";
      j += ",\"datagrams\":" + std::to_string(plane->datagrams());
      j += ",\"kernel_drops\":" + std::to_string(plane->kernel_drops());
      j += ",\"truncated\":" + std::to_string(plane->truncated());
      j += '}';
      j += ",\"shards\":[";
      for (std::size_t i = 0; i < e.shards.size(); ++i) {
        if (i > 0) j += ',';
        j += "{\"datagrams\":" + std::to_string(e.shards[i].datagrams);
        j += ",\"records\":" + std::to_string(e.shards[i].records);
        j += ",\"queue_high_water\":" +
             std::to_string(e.shards[i].queue_high_water);
        j += '}';
      }
      j += ']';
      if (!monitors.empty()) {
        j += ",\"monitors\":[";
        bool first = true;
        for (const auto& object : monitors) {
          if (!first) j += ',';
          first = false;
          j += "{\"name\":\"" + object->name() + "\"";
          j += ",\"flows\":" + std::to_string(object->flows());
          j += ",\"bytes\":" + std::to_string(object->bytes());
          j += ",\"packets\":" + std::to_string(object->packets());
          j += '}';
        }
        j += ']';
      }
      if (streamer) {
        j += ",\"stream\":{\"window_seconds\":" +
             std::to_string(streamer->config().window.window_seconds);
        j += ",\"objects\":[";
        bool first = true;
        for (const auto& os : *streamer) {
          if (!first) j += ',';
          first = false;
          j += "{\"name\":\"" + os->name() + "\"";
          j += ",\"windows\":" + std::to_string(os->windows());
          j += ",\"pending\":" + std::to_string(os->aggregator().pending());
          if (os->has_mavg()) {
            j += ",\"overlimit\":" + std::to_string(os->overlimit_events());
            j += ",\"underlimit\":" + std::to_string(os->underlimit_events());
            j += ",\"value\":" + std::to_string(os->last_value());
            j += ",\"mavg\":" + std::to_string(os->last_mavg());
          }
          j += '}';
        }
        j += "]}";
      }
      j += ",\"trace_threads\":" +
           std::to_string(obs::Tracer::instance().threads());
      j += ",\"trace_dropped_spans\":" +
           std::to_string(obs::Tracer::instance().dropped());
      j += "}\n";
      return j;
    };
    cfg.before_scrape = [&]() {
      obs::refresh_process_gauges(obs_registry);
      runtime::publish_engine_snapshot(obs_registry, daemon.engine_snapshot());
      flow::publish_arena_stats(obs_registry, daemon.arena_stats());
      runtime::publish_wire_plane_stats(obs_registry, *plane);
    };
    if (recorder) cfg.recorder = &*recorder;
    cfg.profiler = &obs::CpuProfiler::instance();
    exposer = obs::HttpExposer::create(std::move(cfg));
    if (!exposer) {
      std::cerr << "error: cannot bind 127.0.0.1:" << listen_port
                << " for the observability endpoint\n";
      return 1;
    }
    std::cout << "observability endpoint on http://127.0.0.1:"
              << exposer->port()
              << " (/metrics /healthz /trace?ms=N /history /profile)\n";
  } else if (recorder) {
    recorder->start();  // no exposer tick to ride: own sampling thread
  }

  // --- Exporter side ---------------------------------------------------------
  // One sender socket per observation domain: SO_REUSEPORT distributes by
  // 4-tuple hash, so distinct source ports are what actually spread the
  // domains across the lanes.
  std::vector<flow::UdpExporterTransport> exporters;
  for (std::size_t i = 0; i < 4; ++i) {
    auto exporter = flow::UdpExporterTransport::create(plane->port());
    if (!exporter) {
      std::cerr << "error: cannot create the exporter socket\n";
      return 1;
    }
    exporters.push_back(std::move(*exporter));
  }
  const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                        {.seed = 42});
  const synth::FlowSynthesizer synth(
      ixp.model, registry,
      {.connections_per_hour = 400, .gen_threads = gen_threads});
  if (gen_threads > 1) {
    std::cout << "synthesizing on " << gen_threads << " generator threads\n";
  }

  if (profile_hz > 0) {
    if (obs::CpuProfiler::instance().start(static_cast<int>(profile_hz))) {
      std::cout << "cpu profiler sampling at " << profile_hz << " Hz\n";
    } else {
      std::cerr << "warning: cpu profiler unavailable "
                << (obs::CpuProfiler::supported() ? "(already running)"
                                                  : "(unsupported platform)")
                << "\n";
    }
  }

  std::cout << "streaming two hours of lockdown-evening IXP traffic...\n";
  // Four observation domains, round-robin per batch: the sharded runtime
  // keys its shard routing on the export source, so a single domain would
  // funnel every datagram into one shard. Four domains behave like four
  // routers behind one collector and actually exercise the fan-out.
  std::array<flow::IpfixEncoder, 4> encoders{
      flow::IpfixEncoder(900), flow::IpfixEncoder(901), flow::IpfixEncoder(902),
      flow::IpfixEncoder(903)};
  std::size_t next_encoder = 0;
  flow::PacketBatch packets;  // reused across ships; capacity persists
  std::vector<flow::FlowRecord> batch;
  std::size_t ships = 0;
  const auto metrics_line = [&]() {
    const obs::RegistrySnapshot snap = obs_registry.snapshot();
    const std::string l = "protocol=\"ipfix\"";
    std::cout << "  [metrics] packets="
              << snap.counter_value("collector_packets_total", l)
              << " records=" << snap.counter_value("collector_records_total", l)
              << " seq_lost=" << snap.counter_value("collector_sequence_lost_total", l)
              << " decode_errors="
              << snap.counter_value("collector_decode_errors_total",
                                    "error=\"truncated_header\"," + l) +
                     snap.counter_value("collector_decode_errors_total",
                                        "error=\"bad_length\"," + l);
    // Pipeline freshness: wall-clock lag behind the newest wire arrival
    // whose batch fully left the pipeline (runtime/sharded_daemon.hpp).
    const std::uint64_t mark = daemon.released_watermark_ns();
    if (mark != 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    static_cast<double>(obs::trace_now_ns() - mark) / 1e6);
      std::cout << " wm_lag_ms=" << buf;
    }
    if (recorder) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", recorder->ring_occupancy());
      std::cout << " rec_samples=" << recorder->samples() << " rec_ring="
                << buf;
    }
    std::cout << "\n";
  };
  auto ship = [&]() {
    if (batch.empty()) return;
    // Compiled batch encode into one reused buffer; the default limits
    // keep every datagram under the 1500-byte MTU (the per-field encode()
    // could emit 1920-byte messages for IPv6-heavy chunks).
    packets.clear();
    flow::IpfixEncoder& encoder = encoders[next_encoder];
    flow::UdpExporterTransport& exporter = exporters[next_encoder];
    next_encoder = (next_encoder + 1) % encoders.size();
    encoder.encode_batch(batch, flow::batch_export_time(batch), packets);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      exporter.send(packets.packet(i));
    }
    batch.clear();
    // Delivery pacing keeps the demo deterministic: each ship targets one
    // domain (one lane), and waiting for its tickets before the next ship
    // makes the global arrival order equal the send order -- so slices are
    // byte-identical for every lane and shard count. Free-running
    // deployments skip this and accept scheduler-dependent cross-source
    // interleaving (per-source order is still kernel-guaranteed).
    std::uint64_t on_wire = 0;
    for (const auto& e : exporters) on_wire += e.sent() - e.dropped();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (daemon.engine_snapshot().wire_datagrams + plane->kernel_drops() <
               on_wire &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    // Completed windows are consumed here, on the owner thread; rotation
    // happened inside the ingest path without blocking it.
    if (streamer) (void)streamer->poll();
    // Periodic observability heartbeat, the live analogue of a scrape; the
    // plane's counters are relaxed atomics, safe to publish live.
    if (metrics != nullptr && (++ships & 1023) == 0) {
      runtime::publish_wire_plane_stats(obs_registry, *plane);
      metrics_line();
    }
  };
  // Exporter-side systematic sampling: bytes/packets of survivors are
  // scaled inside the record, exactly like a sampling router announces.
  flow::SystematicSampler sampler(
      flow_sampling > 1 ? static_cast<std::uint32_t>(flow_sampling) : 1);
  if (flow_sampling > 1) {
    std::cout << "exporter samples 1-in-" << flow_sampling
              << " flows (collector rescales flow counts)\n";
  }
  synth.synthesize(
      net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 19),
                     net::Timestamp::from_date(net::Date(2020, 3, 25), 21)},
      [&](const flow::FlowRecord& r) {
        const auto sampled = sampler.offer(r);
        if (!sampled) return;
        batch.push_back(*sampled);
        if (batch.size() == 48) ship();
      });
  ship();
  std::uint64_t datagrams_sent = 0;
  std::uint64_t exporter_dropped = 0;
  for (const auto& exporter : exporters) {
    datagrams_sent += exporter.sent();
    exporter_dropped += exporter.dropped();
  }
  // The lane threads ingest asynchronously: wait until everything the
  // exporter put on the wire is either delivered or accounted as a kernel
  // drop before tearing the plane down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.engine_snapshot().wire_datagrams + plane->kernel_drops() <
             datagrams_sent - exporter_dropped &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  plane->stop();
  daemon.flush();
  const flow::CollectorStats wire_stats = daemon.wire_stats();

  std::cout << "  datagrams sent: " << datagrams_sent << " ("
            << exporter_dropped << " dropped, " << plane->kernel_drops()
            << " shed by the kernel)\n";
  const std::uint64_t syscalls = plane->syscalls();
  std::cout << "  wire plane: " << plane->datagrams() << " datagrams over "
            << plane->lanes() << " lane(s) in " << syscalls
            << " receive syscalls";
  if (syscalls > 0) {
    std::cout << " (" << plane->datagrams() / syscalls << " datagrams/syscall)";
  }
  std::cout << "\n";
  std::cout << "  records spooled: " << daemon.records_spooled() << " into "
            << daemon.slices_emitted() << " slices\n";
  if (!slice_errors.empty()) {
    for (const auto& err : slice_errors) {
      std::cerr << "error: cannot write slice " << err << "\n";
    }
    std::cerr << "error: " << slice_errors.size() << " of "
              << daemon.slices_emitted() << " slices not written\n";
    return 1;
  }
  std::cout << "  malformed packets: " << wire_stats.malformed_packets << "\n";
  std::cout << "  export loss: " << wire_stats.sequence_lost
            << " records across " << wire_stats.sequence_gaps
            << " sequence gaps (" << wire_stats.sequence_resets
            << " exporter resets)\n";
  const auto engine = daemon.engine_snapshot();
  std::cout << "  engine: " << engine.dropped << " ring drops, queue high-water "
            << engine.queue_high_water << "\n  per shard:";
  for (std::size_t i = 0; i < engine.shards.size(); ++i) {
    std::cout << " [" << i << "] " << engine.shards[i].records << " records";
  }
  std::cout << "\n";
  if (metrics != nullptr) {
    runtime::publish_engine_snapshot(obs_registry, engine);
    flow::publish_arena_stats(obs_registry, daemon.arena_stats());
  }
  if (!monitors.empty()) {
    std::cout << "  monitoring objects (flows / bytes / packets):\n";
    for (const auto& object : monitors) {
      std::cout << "    " << object->name() << ": " << object->flows() << " / "
                << util::format_bytes(object->bytes()) << " / "
                << object->packets() << "\n";
    }
  }
  if (streamer) {
    // The daemon is flushed; close the partial windows and drain the rest.
    streamer->flush();
    (void)streamer->poll();
    std::cout << "  streaming windows (" << window_seconds << "s):\n";
    for (const auto& os : *streamer) {
      std::cout << "    " << os->name() << ": " << os->windows()
                << " windows";
      if (os->has_mavg()) {
        std::cout << ", " << os->overlimit_events() << " overlimit / "
                  << os->underlimit_events() << " underlimit events";
      }
      std::cout << "\n";
    }
    if (window_table) {
      const std::string csv = window_table->to_csv();
      const std::string err =
          util::write_whole_file(window_csv_path, csv.data(), csv.size());
      if (!err.empty()) {
        std::cerr << "error: cannot write window CSV to " << window_csv_path
                  << ": " << err << "\n";
        return 1;
      }
      std::cout << "  window CSV (" << window_table->rows() << " rows) -> "
                << window_csv_path << "\n";
    }
  }
  if (metrics != nullptr) {
    runtime::publish_wire_plane_stats(obs_registry, *plane);
    obs::refresh_process_gauges(obs_registry);
    metrics_line();
    std::cout << "\n--- end-of-run metrics dump (Prometheus text format) ---\n"
              << obs_registry.expose_text()
              << "--- end dump ---\n";
    if (!monitors.empty()) {
      // Clean shutdown of the monitoring layer: the daemon is flushed (no
      // route_batch can race), so the per-object counters unregister and a
      // later scrape no longer mentions them.
      if (streamer) streamer->unbind_metrics();
      monitors.unbind_metrics();
      const std::string after = obs_registry.expose_text();
      const bool clean = after.find("monitor_matched_") == std::string::npos &&
                         after.find("stream_") == std::string::npos;
      std::cout << "monitor + stream metrics unregistered from /metrics ("
                << (clean ? "verified absent" : "STILL PRESENT -- bug")
                << ")\n";
    }
  }
  if (recorder) {
    if (!exposer) recorder->stop();
    recorder->sample();  // one final tick so the dump holds closing values
    std::cout << "flight recorder: " << recorder->samples() << " samples over "
              << recorder->series() << " series\n";
    if (!history_out.empty()) {
      const std::string csv = recorder->to_csv("*", 0);
      const std::string err =
          util::write_whole_file(history_out, csv.data(), csv.size());
      if (!err.empty()) {
        std::cerr << "error: cannot write history CSV to " << history_out
                  << ": " << err << "\n";
        return 1;
      }
      std::cout << "history CSV -> " << history_out << "\n";
    }
  }
  if (profile_hz > 0 && obs::CpuProfiler::instance().running()) {
    obs::CpuProfiler& prof = obs::CpuProfiler::instance();
    prof.stop();
    // Top stacks by sample count: where the run's CPU time actually went.
    std::vector<std::pair<std::uint64_t, std::string>> stacks;
    const std::string folded = prof.folded();
    std::size_t pos = 0;
    while (pos < folded.size()) {
      const std::size_t eol = std::min(folded.find('\n', pos), folded.size());
      const std::string_view line =
          std::string_view(folded).substr(pos, eol - pos);
      pos = eol + 1;
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string_view::npos) continue;
      const std::string_view stack = line.substr(0, sp);
      const std::uint64_t count =
          std::strtoull(std::string(line.substr(sp + 1)).c_str(), nullptr, 10);
      const std::size_t leaf = stack.rfind(';');
      stacks.emplace_back(count, std::string(leaf == std::string_view::npos
                                                 ? stack
                                                 : stack.substr(leaf + 1)));
    }
    std::sort(stacks.begin(), stacks.end(), std::greater<>());
    std::cout << "cpu profiler: " << prof.samples() << " samples at "
              << profile_hz << " Hz (" << prof.dropped()
              << " lost to ring wrap)\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(3, stacks.size()); ++i) {
      std::cout << "    " << stacks[i].first << "  " << stacks[i].second
                << "\n";
    }
  }
  std::cout << "\n";

  // --- Analyst side -----------------------------------------------------------
  std::cout << "analyzing spooled slices from " << out_dir << ":\n";
  const analysis::AppClassifier classifier = analysis::AppClassifier::table1();
  analysis::VolumeAggregator volume(stats::Bucket::kHour);
  filter::FlowColumns cols;
  std::vector<std::optional<analysis::AppClass>> classes;
  std::size_t classified = 0, records_seen = 0;
  for (const auto& path : slice_paths) {
    const auto trace = flow::read_trace_file(path.string());
    if (!trace) continue;
    const std::size_t n = trace->records.size();
    cols.build(trace->records, &registry.trie());
    volume.add_batch(trace->records, cols);
    records_seen += n;
    classes.resize(n);
    classifier.classify(trace->records, cols, classes);
    for (const auto& cls : classes) {
      if (cls) ++classified;
    }
  }
  for (const auto& [hour, bytes] : volume.series().points()) {
    std::cout << "  " << hour.to_string() << "  "
              << util::format_bytes(bytes) << "\n";
  }
  std::cout << "  app-classified " << classified << " of " << records_seen
            << " records (Table 1 filters)\n";
  std::cout << "\n(the analyst never saw a raw address: slices were\n"
            << " prefix-preservingly anonymized at the collector)\n";

  // --- Span trace export ------------------------------------------------------
  // Written after the analyst pass so the trace covers every stage: wire
  // ingest, shard decode, classification, and the encode side.
  if (!trace_out.empty()) {
    const std::string json = obs::Tracer::instance().chrome_json();
    const std::string err = util::write_whole_file(trace_out, json.data(), json.size());
    if (!err.empty()) {
      std::cerr << "error: cannot write trace to " << trace_out << ": " << err
                << "\n";
      return 1;
    }
    std::cout << "span trace written to " << trace_out
              << " (load in Perfetto or chrome://tracing)\n";
  }

  if (exposer && linger_ms > 0) {
    std::cout << "lingering " << linger_ms
              << " ms for external scrapers (port " << exposer->port()
              << ")...\n"
              << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  return 0;
}
