// The two live workloads: synthesized traffic encoded into datagrams at
// set-up, sent over the loopback interface into the collector daemon fed
// by a WirePlane, with the nine Table-1 monitoring objects and a
// StreamMonitor on the shard threads and 300 s slices spooled in memory.
//
// The owner thread is also the sender, like live_collector's ship loop: it
// sends on schedule, polls the StreamMonitor every millisecond and takes a
// registry-snapshot heartbeat every 100 ms. A datagram counts as delivered
// when records_spooled() covers its records; with one wire lane the daemon
// releases batches in wire order, so the cumulative record count of the
// datagrams sent so far says exactly which datagrams are spooled.
#include <sys/prctl.h>

#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/app_filter.hpp"
#include "analysis/table1_dsl.hpp"
#include "filter/monitor.hpp"
#include "filter/plan.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "runtime/sharded_daemon.hpp"
#include "runtime/wire_plane.hpp"
#include "stream/engine.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/siphash.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace lockdown;

// --- Frozen workload parameters ---------------------------------------------
// Changing any of these changes the benchmark (README.md: its own change).

/// Open-loop offered rates, datagrams per second.
constexpr double kIxpOpenRate = 10'000;
constexpr double kV9OpenRate = 20'000;
/// Closed loop: datagrams in flight (sent, records not yet spooled). The
/// lane releases completed batches to the spooler every 64 ingests and
/// whenever its event loop wakes; while the sender waits on a full window
/// the lane sleeps until its 5 ms tick, so the window must cover a tick of
/// work at capacity, or the loop measures the tick. 512 MTU-sized datagrams (~1.2 MB of socket-buffer
/// truesize) fit the requested 4 MiB SO_RCVBUF and a 4096-slot shard ring
/// with room to spare, so the loop measures loss-free capacity.
constexpr std::size_t kClosedWindow = 512;
constexpr int kRcvbufBytes = 4 << 20;
/// IXP-CE records per pass (tiny: self-test size). Passes are short and
/// many, so the open-loop tail and the closed-loop rate average over many
/// independent samples.
constexpr std::size_t kIxpRecords = 500'000;
constexpr std::size_t kTinyRecords = 20'000;
/// v9 export sources and their sampling-options cadence.
constexpr std::uint32_t kV9Sources = 1024;
constexpr std::uint32_t kV9OptionsEvery = 32;  // data packets per source
constexpr std::int64_t kSliceSeconds = 300;
/// Open-loop statistics are taken per 250 ms of schedule, then reduced
/// over segments by their interquartile mean.
constexpr std::uint64_t kSegmentNs = 250'000'000;
/// Segments with fewer latency samples (the ragged last one) are skipped.
constexpr std::size_t kMinSegmentSamples = 200;
/// Records used by the isolated per-layer replays of traced runs.
constexpr std::size_t kIsolatedRecords = 300'000;
/// Datagrams of the unmeasured closed-loop warm-up pass.
constexpr std::size_t kWarmupDatagrams = 10'000;
/// Set-up is timed at least kSetups times (two visits to each CPU of a
/// 4-CPU host) and until kSetupSeconds are spent, tiny and traced runs
/// once.
constexpr int kSetups = 8;
constexpr double kSetupSeconds = 4.0;
/// Records, and repetitions, of the isolated shard-work replay that
/// stands in for the shard threads in v9's cpu_ns_per_record.
constexpr std::size_t kShardWorkRecords = 150'000;
constexpr int kShardWorkReps = 8;
/// Validity limits.
constexpr double kMaxLateP99Ms = 1.0;
constexpr double kMaxRunqShare = 0.25;

const util::SipHashKey kDigestKey{0x70657266ULL, 0x62656e6368ULL};

struct Spec {
  const char* name;
  flow::ExportProtocol protocol;
  std::size_t shards;
  bool closed_loop;
  double open_rate;
  int open_passes;
};

constexpr Spec kIxpSpec{"ixp_ipfix_live", flow::ExportProtocol::kIpfix, 1, true, kIxpOpenRate, 3};
constexpr Spec kV9Spec{"isp_v9_many_exporters", flow::ExportProtocol::kNetflowV9, 2, false, kV9OpenRate, 1};

// --- Inputs -------------------------------------------------------------------

/// Every datagram of a run, in wire order, with its record count.
struct Pool {
  flow::PacketBatch packets;
  std::vector<std::uint32_t> records;  ///< records per datagram
  std::vector<std::uint64_t> cum;      ///< records through datagram i
  std::uint64_t total_records = 0;
  std::uint64_t synth_ns = 0;
  std::uint64_t encode_ns = 0;
  std::uint64_t synthesized = 0;
  std::uint64_t seed = 0;  ///< the run's seed, which also draws the schedules

  [[nodiscard]] std::size_t size() const noexcept { return packets.size(); }
};

std::uint32_t be32(std::span<const std::uint8_t> p, std::size_t at) {
  return (std::uint32_t{p[at]} << 24) | (std::uint32_t{p[at + 1]} << 16) |
         (std::uint32_t{p[at + 2]} << 8) | std::uint32_t{p[at + 3]};
}

/// Open-loop send schedule, ns after the pass starts: Poisson arrivals at
/// `rate` per second. Exponential gaps, not a fixed period: the lane
/// releases completed batches when it next wakes, so a fixed period would
/// quantize every latency to whole periods. Each open-loop pass draws its
/// own schedule, so repeated passes over the same datagrams still sample
/// independent arrival patterns.
std::vector<std::uint64_t> poisson_schedule(std::size_t n, double rate,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::exponential_distribution<double> gap(rate / 1e9);
  std::vector<std::uint64_t> due(n);
  double t = 0;
  for (std::uint64_t& d : due) {
    d = static_cast<std::uint64_t>(t);
    t += gap(rng);
  }
  return due;
}

void finish_pool(Pool& pool) {
  pool.cum.resize(pool.size());
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    c += pool.records[i];
    pool.cum[i] = c;
  }
  pool.total_records = c;
}

/// Synthesize hour by hour from 2020-03-25 16:00 (the lockdown evening)
/// until `target` records passed `keep`, then order them by flow start the
/// way an exporter emits expired flows. The synthesizer generates per
/// (component, hour) cell; sent in that order most records would land in
/// each hour's last slice and window as late arrivals.
template <typename Keep>
std::vector<flow::FlowRecord> synthesize_evening(const synth::FlowSynthesizer& synth,
                                                 std::size_t target, Keep&& keep) {
  std::vector<flow::FlowRecord> records;
  records.reserve(target);
  for (unsigned h = 0; records.size() < target; ++h) {
    const net::Timestamp begin =
        net::Timestamp::from_date(net::Date(2020, 3, 25), 16).plus(h * 3600LL);
    synth.synthesize(net::TimeRange{begin, begin.plus(3600)},
                     [&](const flow::FlowRecord& r) {
                       if (records.size() < target && keep(r)) records.push_back(r);
                     });
  }
  // std::sort needs no scratch buffer and orders ties the same way on
  // every run.
  std::sort(records.begin(), records.end(),
            [](const flow::FlowRecord& a, const flow::FlowRecord& b) {
              return a.first.seconds() < b.first.seconds();
            });
  return records;
}

/// IXP-CE as MTU-filled IPFIX messages from 4 observation domains, 48
/// records per domain in turn (live_collector's ship size).
Pool build_ixp_pool(const synth::AsRegistry& registry, std::uint64_t seed,
                    std::size_t target) {
  Pool pool;
  const std::uint64_t t0 = now_ns();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe, registry,
                                       {.seed = seed});
  const synth::FlowSynthesizer synth(
      vp.model, registry,
      {.connections_per_hour = static_cast<double>(target) / 8, .seed_salt = seed});
  const auto records =
      synthesize_evening(synth, target, [](const flow::FlowRecord&) { return true; });
  const std::uint64_t e0 = now_ns();
  // Reserved past the worst case so the buffer never regrows: growth
  // copies would make peak RSS depend on where the seed's total lands
  // between two capacities. Untouched reserve costs no RSS.
  pool.packets.reserve(records.size() * 96, records.size());
  std::array<flow::IpfixEncoder, 4> encoders{
      flow::IpfixEncoder(900), flow::IpfixEncoder(901), flow::IpfixEncoder(902),
      flow::IpfixEncoder(903)};
  const std::span<const flow::FlowRecord> all(records);
  for (std::size_t off = 0, k = 0; off < all.size(); off += 48, ++k) {
    const auto batch = all.subspan(off, std::min<std::size_t>(48, all.size() - off));
    encoders[k % encoders.size()].encode_batch(batch, flow::batch_export_time(batch),
                                               pool.packets);
  }
  pool.encode_ns = now_ns() - e0;
  pool.synth_ns = e0 - t0;
  pool.synthesized = records.size();
  // IPFIX sequence numbers count data records per domain, so consecutive
  // messages of one domain give each message's record count exactly.
  pool.records.assign(pool.size(), 0);
  std::array<std::optional<std::pair<std::size_t, std::uint32_t>>, 4> last;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const auto p = pool.packets.packet(i);
    const std::size_t d = be32(p, 12) - 900;
    const std::uint32_t seq = be32(p, 8);
    if (last[d]) pool.records[last[d]->first] = seq - last[d]->second;
    last[d] = {i, seq};
  }
  for (std::size_t d = 0; d < 4; ++d) {
    if (last[d]) pool.records[last[d]->first] = encoders[d].sequence() - last[d]->second;
  }
  pool.seed = seed;
  finish_pool(pool);
  return pool;
}

/// ISP-CE IPv4 traffic as NetFlow v9 from kV9Sources source ids: 1-4
/// records per datagram, each carrying its template, plus a sampling-options
/// packet before every kV9OptionsEvery-th data packet of a source.
Pool build_v9_pool(const synth::AsRegistry& registry, std::uint64_t seed,
                   std::size_t target) {
  Pool pool;
  const std::uint64_t t0 = now_ns();
  const auto vp = synth::build_vantage(synth::VantagePointId::kIspCe, registry,
                                       {.seed = seed});
  const synth::FlowSynthesizer synth(
      vp.model, registry,
      {.connections_per_hour = static_cast<double>(target) / 8, .seed_salt = seed});
  const auto records = synthesize_evening(synth, target, [](const flow::FlowRecord& r) {
    return r.src_addr.is_v4() && r.dst_addr.is_v4();
  });
  const std::uint64_t e0 = now_ns();
  pool.packets.reserve(records.size() * 256, records.size() * 2);  // see above
  std::vector<flow::NetflowV9Encoder> encoders;
  encoders.reserve(kV9Sources);
  for (std::uint32_t s = 0; s < kV9Sources; ++s) encoders.emplace_back(1000 + s);
  std::vector<std::uint32_t> sent(kV9Sources, 0);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint32_t> pick_source(0, kV9Sources - 1);
  std::uniform_int_distribution<std::size_t> pick_size(1, 4);
  const std::span<const flow::FlowRecord> all(records);
  for (std::size_t off = 0; off < all.size();) {
    const auto batch = all.subspan(off, std::min(pick_size(rng), all.size() - off));
    off += batch.size();
    const std::uint32_t s = pick_source(rng);
    const net::Timestamp when = flow::batch_export_time(batch);
    if (sent[s]++ % kV9OptionsEvery == 0) {
      const auto opts = encoders[s].encode_sampling_options(when, 1 + s % 4);
      pool.packets.begin_packet();
      std::memcpy(pool.packets.extend(opts.size()), opts.data(), opts.size());
      pool.packets.end_packet();
      pool.records.push_back(0);
    }
    // At most 4 records: always one packet.
    (void)encoders[s].encode_batch(batch, when, pool.packets);
    pool.records.push_back(static_cast<std::uint32_t>(batch.size()));
  }
  pool.encode_ns = now_ns() - e0;
  pool.synth_ns = e0 - t0;
  pool.synthesized = records.size();
  pool.seed = seed;
  finish_pool(pool);
  return pool;
}

// --- The system under test --------------------------------------------------

/// One completed window, minus its wall-clock watermark.
struct WindowRow {
  std::string object;
  std::int64_t begin = 0;
  std::int64_t seq = 0;
  stream::WindowAcc total;
  std::vector<std::pair<stream::WindowKey, stream::WindowAcc>> rows;

  friend bool operator==(const WindowRow&, const WindowRow&) = default;
};

WindowRow window_row(const stream::ObjectStream& os, const stream::WindowResult& r) {
  WindowRow w{os.name(), r.begin.seconds(), r.seq, r.total, r.rows};
  std::sort(w.rows.begin(), w.rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return w;
}

stream::StreamConfig stream_config() {
  stream::StreamConfig c;
  c.window.window_seconds = kSliceSeconds;
  c.window.key = {stream::KeyField::kService};
  c.mavg = stream::MavgConfig{.k = 3, .metric = stream::MavgMetric::kFlows,
                              .overlimit = 1.5};
  return c;
}

/// Everything the outputs are checked on.
struct Outputs {
  std::vector<std::pair<std::int64_t, std::uint64_t>> slices;  ///< begin, digest
  /// Slices of a live pass, kept whole until the pass ends so the digest
  /// is not computed on the daemon's releasing thread.
  std::vector<flow::TraceSlice> images;
  std::vector<WindowRow> windows;
  std::vector<std::array<std::uint64_t, 3>> monitor_totals;
  std::uint64_t records_spooled = 0;
};

void digest_slices(Outputs& out) {
  for (const flow::TraceSlice& s : out.images) {
    out.slices.emplace_back(s.begin.seconds(), util::siphash24(kDigestKey, s.image));
  }
  out.images.clear();
}

void add_monitor_totals(Outputs& out, const filter::MonitorSet& monitors) {
  for (const auto& o : monitors) {
    out.monitor_totals.push_back({o->flows(), o->bytes(), o->packets()});
  }
}

/// Registry, monitors, StreamMonitor, daemon and plane of one pass.
/// Members are destroyed in reverse order: the plane stops first, the
/// registry goes last.
struct Pipeline {
  obs::Registry registry;
  filter::MonitorSet monitors;
  std::optional<stream::StreamMonitor> streamer;
  Outputs out;
  Samples window_lag_ms;
  LayerClock route;  ///< in-situ route_batch time (traced passes)
  std::vector<pid_t> shard_tids;
  std::vector<pid_t> lane_tids;
  std::unique_ptr<runtime::ShardedCollectorDaemon> daemon;
  std::unique_ptr<runtime::WirePlane> plane;

  Pipeline(const Spec& spec, const synth::AsRegistry& as_registry,
           const std::vector<analysis::MonitorDefinition>& defs, bool traced)
      : monitors(&as_registry.trie()) {
    analysis::add_monitor_definitions(monitors, defs);
    monitors.bind_metrics(registry);
    streamer.emplace(monitors, stream_config());
    streamer->bind_metrics(registry);
    // Threshold events still count; the sink replaces the stderr log line.
    streamer->set_event_sink([](const stream::ObjectStream&, const stream::MavgEvent&) {});
    streamer->set_window_sink(
        [this](const stream::ObjectStream& os, const stream::WindowResult& r) {
          if (r.arrival_watermark_ns != 0) {
            const std::uint64_t t = now_ns();
            window_lag_ms.add(
                t > r.arrival_watermark_ns
                    ? static_cast<double>(t - r.arrival_watermark_ns) / 1e6
                    : 0.0);
          }
          out.windows.push_back(window_row(os, r));
        });
    flow::Collector::BatchSink observer = monitors.batch_sink();
    if (traced) {
      static const std::uint32_t id = SpanLog::instance().id("filter", "route_batch");
      observer = [this](std::span<const flow::FlowRecord> batch) {
        const Span s(id, &route, batch.size());
        monitors.route_batch(batch);
      };
    }
    auto before = list_threads();
    daemon = std::make_unique<runtime::ShardedCollectorDaemon>(
        runtime::ShardedDaemonConfig{
            .protocol = spec.protocol,
            .shards = spec.shards,
            .rotation_seconds = kSliceSeconds,
            .rescale_sampled = spec.protocol == flow::ExportProtocol::kNetflowV9,
            .wire_lanes = 1,
            .metrics = &registry,
            .batch_observer = std::move(observer)},
        [this](flow::TraceSlice&& s) { out.images.push_back(std::move(s)); });
    shard_tids = new_threads(before);
    before = list_threads();
    plane = runtime::WirePlane::create(
        {.lanes = 1, .rcvbuf_bytes = kRcvbufBytes, .metrics = &registry}, *daemon);
    if (!plane) throw std::runtime_error("cannot bind the wire-plane socket");
    lane_tids = new_threads(before);
  }

  /// Stop the plane, flush the daemon and the windows; the outputs are
  /// complete afterwards.
  void finish() {
    plane->stop();
    daemon->flush();
    streamer->flush();
    (void)streamer->poll();
    out.records_spooled = daemon->records_spooled();
    add_monitor_totals(out, monitors);
    digest_slices(out);
  }
};

/// records_spooled() is a plain size_t the releasing thread writes, so this
/// read races with that write in the C++ memory model (a thread sanitizer
/// reports it). On the x86-64 and arm64 hosts this runs on, an aligned
/// 8-byte load is never torn and the count only grows, so a stale read
/// only delays a sample by one loop iteration. The call is kept out of line
/// so every iteration re-reads the counter. Making it atomic is a change to
/// src/runtime, outside this benchmark.
[[gnu::noinline]] std::uint64_t spooled(const runtime::ShardedCollectorDaemon& d) {
  return d.records_spooled();
}

/// One pass of the pool through a fresh pipeline.
struct PassResult {
  bool closed = false;
  double wall_s = 0;
  std::uint64_t sent_records = 0;
  std::uint64_t spooled_records = 0;
  std::uint64_t datagrams = 0;
  Samples latency_ms;   ///< open loop: due send time -> spooled
  Samples late_ms;      ///< open loop: due -> actually sent
  /// Open loop, per kSegmentNs of the send schedule. The reported figures
  /// are medians over segments, so one host stall (a descheduled VM, a
  /// noisy neighbour) moves one segment, not the run.
  std::vector<Samples> seg_latency_ms, seg_late_ms;
  std::vector<double> seg_lane_cpu_ns;  ///< lane CPU per record spooled
  std::vector<double> seg_runq;    ///< lane + shard share of time runnable, waiting
  Samples release_lag_ms;
  Samples poll_us;
  Samples snapshot_us;
  SchedTime lanes, shards, owner;
  std::size_t lane_threads = 0, shard_threads = 0;
  runtime::EngineSnapshot engine;
  flow::CollectorStats wire_stats;
  flow::PacketArena::Stats arena;
  std::uint64_t plane_datagrams = 0, plane_syscalls = 0, kernel_drops = 0,
                truncated = 0, gen_dropped = 0;
  std::uint64_t slices = 0, windows = 0;
  Samples window_lag_ms;
  double route_ns_per_record = 0;
  double hits_per_record = 0;
  Outputs out;
};

PassResult run_pass(const Spec& spec, const Pool& pool, const synth::AsRegistry& reg,
                    const std::vector<analysis::MonitorDefinition>& defs,
                    bool closed, bool traced, std::size_t count,
                    std::uint64_t schedule_seed) {
  static const std::uint32_t poll_id = SpanLog::instance().id("stream", "poll");
  static const std::uint32_t snap_id = SpanLog::instance().id("obs", "snapshot");
  static const std::uint32_t pass_id =
      SpanLog::instance().id("pass", closed ? "closed_loop" : "open_loop");
  Pipeline p(spec, reg, defs, traced);
  auto tx = flow::UdpExporterTransport::create(p.plane->port());
  if (!tx) throw std::runtime_error("cannot create the sender socket");

  PassResult r;
  r.closed = closed;
  const std::size_t n = count;
  const std::vector<std::uint64_t> due_ns =
      closed ? std::vector<std::uint64_t>{}
             : poisson_schedule(n, spec.open_rate, schedule_seed);
  std::size_t next = 0, covered = 0;
  const pid_t owner = this_tid();
  const SchedTime lanes0 = sched_time(p.lane_tids), shards0 = sched_time(p.shard_tids),
                  owner0 = sched_time({owner});
  const std::uint64_t t0 = now_ns();
  std::uint64_t last_poll = t0, last_beat = t0, last_seg = t0;
  std::uint64_t seg_spooled = 0;
  SchedTime seg_lanes = lanes0, seg_sched = lanes0;
  seg_sched += shards0;
  const auto due = [&](std::size_t i) {
    return t0 + due_ns[i];
  };
  const auto segment = [&](std::size_t i) -> std::size_t {
    const std::size_t k = (due(i) - t0) / kSegmentNs;
    if (r.seg_latency_ms.size() <= k) {
      r.seg_latency_ms.resize(k + 1);
      r.seg_late_ms.resize(k + 1);
    }
    return k;
  };
  const double system_threads =
      static_cast<double>(p.lane_tids.size() + p.shard_tids.size());
  // Owner duties between sends: window drain, freshness sample, heartbeat.
  const auto service = [&](std::uint64_t now, bool final_beat = false) {
    if (now - last_poll >= 1'000'000) {
      last_poll = now;
      const std::uint64_t a = now_ns();
      (void)p.streamer->poll();
      const std::uint64_t b = now_ns();
      r.poll_us.add(static_cast<double>(b - a) / 1e3);
      SpanLog::instance().emit(poll_id, a, b);
      const std::uint64_t mark = p.daemon->released_watermark_ns();
      if (mark != 0) {
        r.release_lag_ms.add(b > mark ? static_cast<double>(b - mark) / 1e6 : 0.0);
      }
    }
    if (!closed && now - last_seg >= kSegmentNs) {
      const SchedTime lanes = sched_time(p.lane_tids);
      SchedTime st = lanes;
      st += sched_time(p.shard_tids);
      const std::uint64_t s = spooled(*p.daemon);
      r.seg_lane_cpu_ns.push_back(ratio(static_cast<double>(lanes.run_ns - seg_lanes.run_ns),
                                        static_cast<double>(s - seg_spooled)));
      r.seg_runq.push_back(static_cast<double>(st.wait_ns - seg_sched.wait_ns) /
                           (static_cast<double>(now - last_seg) * system_threads));
      seg_lanes = lanes;
      seg_sched = st;
      seg_spooled = s;
      last_seg = now;
    }
    if (now - last_beat >= 100'000'000 || final_beat) {
      last_beat = now;
      runtime::publish_engine_snapshot(p.registry, p.daemon->engine_snapshot());
      runtime::publish_wire_plane_stats(p.registry, *p.plane);
      const std::uint64_t a = now_ns();
      const obs::RegistrySnapshot snap = p.registry.snapshot();
      const std::uint64_t b = now_ns();
      r.snapshot_us.add(static_cast<double>(b - a) / 1e3);
      SpanLog::instance().emit(snap_id, a, b, snap.counters.size());
    }
  };
  const auto advance_covered = [&](std::uint64_t now) {
    const std::uint64_t s = spooled(*p.daemon);
    while (covered < next && pool.cum[covered] <= s) {
      if (!closed && pool.records[covered] > 0) {
        const double ms = static_cast<double>(now - due(covered)) / 1e6;
        r.latency_ms.add(ms);
        r.seg_latency_ms[segment(covered)].add(ms);
      }
      ++covered;
    }
  };

  while (next < n) {
    std::uint64_t now = now_ns();
    if (closed) {
      advance_covered(now);
      if (next - covered < kClosedWindow) {
        tx->send(pool.packets.packet(next++));
      } else {
        std::this_thread::yield();
      }
    } else {
      while (next < n && due(next) <= now) {
        tx->send(pool.packets.packet(next));
        const double ms = static_cast<double>(now_ns() - due(next)) / 1e6;
        r.late_ms.add(ms);
        r.seg_late_ms[segment(next)].add(ms);
        ++next;
      }
      now = now_ns();
      advance_covered(now);
      if (next < n) {
        const std::uint64_t wake = due(next);
        if (wake > now + 20'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::uint64_t>(wake - now - 10'000, 500'000)));
        }
      }
    }
    service(now);
  }
  // Drain: wait until every record is spooled (or clearly lost).
  const std::uint64_t deadline = now_ns() + 3'000'000'000ULL;
  while (covered < n && now_ns() < deadline) {
    const std::uint64_t now = now_ns();
    advance_covered(now);
    service(now);
    std::this_thread::sleep_for(std::chrono::microseconds(closed ? 0 : 20));
  }
  service(now_ns(), true);  // every pass ends with a heartbeat
  const std::uint64_t t1 = now_ns();
  r.lanes = sched_time(p.lane_tids) - lanes0;
  r.shards = sched_time(p.shard_tids) - shards0;
  r.owner = sched_time({owner}) - owner0;
  SpanLog::instance().emit(pass_id, t0, t1, n);
  r.lane_threads = p.lane_tids.size();
  r.shard_threads = p.shard_tids.size();
  r.wall_s = static_cast<double>(t1 - t0) / 1e9;
  r.engine = p.daemon->engine_snapshot();
  r.arena = p.daemon->arena_stats();
  r.plane_datagrams = p.plane->datagrams();
  r.plane_syscalls = p.plane->syscalls();
  r.kernel_drops = p.plane->kernel_drops();
  r.truncated = p.plane->truncated();
  r.gen_dropped = tx->dropped();
  p.finish();
  r.wire_stats = p.daemon->wire_stats();
  r.datagrams = n;
  r.sent_records = n == 0 ? 0 : pool.cum[n - 1];
  r.spooled_records = p.out.records_spooled;
  r.slices = p.daemon->slices_emitted();
  for (const auto& os : *p.streamer) r.windows += os->windows();
  r.window_lag_ms = p.window_lag_ms;
  r.route_ns_per_record = p.route.ns_per_item();
  std::uint64_t hits = 0;
  for (const auto& o : p.monitors) hits += o->flows();
  r.hits_per_record =
      ratio(static_cast<double>(hits), static_cast<double>(r.spooled_records));
  r.out = std::move(p.out);
  return r;
}

// --- Reference ---------------------------------------------------------------

/// The same datagrams in wire order through flow::Collector + SliceSpooler
/// and an offline MonitorSet/StreamMonitor fed one batch per datagram.
Outputs replay(const Spec& spec, const Pool& pool, const synth::AsRegistry& reg,
               const std::vector<analysis::MonitorDefinition>& defs) {
  Outputs out;
  filter::MonitorSet monitors(&reg.trie());
  analysis::add_monitor_definitions(monitors, defs);
  stream::StreamMonitor streamer(monitors, stream_config());
  streamer.set_event_sink([](const stream::ObjectStream&, const stream::MavgEvent&) {});
  streamer.set_window_sink(
      [&](const stream::ObjectStream& os, const stream::WindowResult& r) {
        out.windows.push_back(window_row(os, r));
      });
  flow::SliceSpooler spooler(kSliceSeconds, [&](flow::TraceSlice&& s) {
    out.images.push_back(std::move(s));
    digest_slices(out);
  });
  flow::Collector collector(
      spec.protocol,
      flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> batch) {
        monitors.route_batch(batch);
        for (const flow::FlowRecord& rec : batch) spooler.append(rec);
      }),
      nullptr, spec.protocol == flow::ExportProtocol::kNetflowV9);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    collector.ingest(pool.packets.packet(i));
    (void)streamer.poll();
  }
  spooler.flush();
  streamer.flush();
  (void)streamer.poll();
  out.records_spooled = spooler.records_spooled();
  add_monitor_totals(out, monitors);
  return out;
}

/// Empty when `live` matches `ref`; otherwise what differs. Per-window
/// equality needs one shard: with two, the shards' batches interleave on
/// the shared window clock in scheduler order, so windows are compared by
/// per-object totals instead.
std::string compare(const Outputs& live, const Outputs& ref, bool exact_windows) {
  if (live.records_spooled != ref.records_spooled) {
    return "records spooled " + std::to_string(live.records_spooled) + " != " +
           std::to_string(ref.records_spooled);
  }
  if (live.slices != ref.slices) return "slice images differ from the replay";
  if (live.monitor_totals != ref.monitor_totals) return "monitor totals differ";
  // Windows arrive in order per object; how objects interleave depends on
  // when the owner polled, so compare object by object.
  const auto by_object = [](const std::vector<WindowRow>& ws) {
    std::map<std::string, std::vector<WindowRow>> m;
    for (const WindowRow& w : ws) m[w.object].push_back(w);
    return m;
  };
  const auto sums = [](const std::vector<WindowRow>& ws) {
    std::map<std::string, stream::WindowAcc> m;
    for (const WindowRow& w : ws) m[w.object] += w.total;
    return m;
  };
  if (exact_windows ? by_object(live.windows) != by_object(ref.windows)
                    : sums(live.windows) != sums(ref.windows)) {
    return "emitted windows differ";
  }
  return {};
}

// --- Isolated layer replays (traced runs) ------------------------------------

struct Isolated {
  double decode_ns_per_record = 0, decode_ns_per_datagram = 0;
  double spool_ns_per_record = 0, columns_ns_per_record = 0;
  double match_ns_per_record = 0, window_ns_per_record = 0;
};

template <typename Fn>
double median_ns(int reps, Fn&& fn) {
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t a = now_ns();
    fn();
    s.add(static_cast<double>(now_ns() - a));
  }
  return s.median();
}

Isolated isolated_layers(const Spec& spec, const Pool& pool,
                         const synth::AsRegistry& reg,
                         const std::vector<analysis::MonitorDefinition>& defs) {
  static const std::uint32_t id = SpanLog::instance().id("layer", "isolated");
  Isolated iso;
  const bool rescale = spec.protocol == flow::ExportProtocol::kNetflowV9;
  // Decode: the whole pool through a Collector whose sink does nothing.
  std::uint64_t decoded = 0;
  const double dec = median_ns(3, [&] {
    const Span s(id);
    flow::Collector c(spec.protocol,
                      flow::Collector::BatchSink(
                          [&](std::span<const flow::FlowRecord> b) { decoded += b.size(); }),
                      nullptr, rescale);
    for (std::size_t i = 0; i < pool.size(); ++i) c.ingest(pool.packets.packet(i));
  });
  iso.decode_ns_per_record = dec / static_cast<double>(pool.total_records);
  iso.decode_ns_per_datagram = dec / static_cast<double>(pool.size());

  // The per-datagram batches of a prefix, materialized once.
  std::vector<flow::FlowRecord> flat;
  std::vector<std::size_t> ends;
  {
    flow::Collector c(spec.protocol,
                      flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> b) {
                        flat.insert(flat.end(), b.begin(), b.end());
                      }),
                      nullptr, rescale);
    for (std::size_t i = 0; i < pool.size() && flat.size() < kIsolatedRecords; ++i) {
      c.ingest(pool.packets.packet(i));
      if (ends.empty() || ends.back() != flat.size()) ends.push_back(flat.size());
    }
  }
  const auto per_batch = [&](auto&& fn) {
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
      fn(std::span<const flow::FlowRecord>(flat.data() + begin, end - begin));
      begin = end;
    }
  };
  const double records = static_cast<double>(std::max<std::size_t>(flat.size(), 1));
  iso.spool_ns_per_record =
      median_ns(3, [&] {
        const Span s(id);
        flow::SliceSpooler spooler(kSliceSeconds, [](flow::TraceSlice&&) {});
        for (const flow::FlowRecord& rec : flat) spooler.append(rec);
        spooler.flush();
      }) / records;
  iso.columns_ns_per_record =
      median_ns(3, [&] {
        const Span s(id);
        filter::FlowColumns cols;
        per_batch([&](std::span<const flow::FlowRecord> b) { cols.build(b, &reg.trie()); });
      }) / records;
  iso.match_ns_per_record =
      median_ns(3, [&] {
        filter::MonitorSet m(&reg.trie());
        analysis::add_monitor_definitions(m, defs);
        const Span s(id);
        per_batch([&](std::span<const flow::FlowRecord> b) { m.route_batch(b); });
      }) / records;
  const double with_window =
      median_ns(3, [&] {
        filter::MonitorSet m(&reg.trie());
        analysis::add_monitor_definitions(m, defs);
        stream::StreamMonitor sm(m, stream_config());
        sm.set_event_sink([](const stream::ObjectStream&, const stream::MavgEvent&) {});
        const Span s(id);
        per_batch([&](std::span<const flow::FlowRecord> b) { m.route_batch(b); });
        (void)sm.poll();
      }) / records;
  iso.window_ns_per_record = std::max(0.0, with_window - iso.match_ns_per_record);
  return iso;
}

/// What a shard thread does with the pool's datagrams -- decode with the
/// template, sequence and sampling maps (and rescaling), then route through
/// the monitors with the StreamMonitor's windows attached -- replayed on
/// the calling thread, ns per record: the median of kShardWorkReps
/// repetitions over a prefix of the pool, each on the next CPU.
double shard_work_ns_per_record(const Spec& spec, const Pool& pool,
                                const synth::AsRegistry& reg,
                                const std::vector<analysis::MonitorDefinition>& defs,
                                bool tiny) {
  std::size_t n = 0;
  while (n < pool.size() && pool.cum[n] < kShardWorkRecords) ++n;
  n = std::min(pool.size(), n + 1);
  const double records = static_cast<double>(pool.cum[n - 1]);
  Samples per_record;
  for (int rep = 0; rep < (tiny ? 1 : kShardWorkReps); ++rep) {
    const PinToCpu pin(static_cast<std::size_t>(rep));
    filter::MonitorSet m(&reg.trie());
    analysis::add_monitor_definitions(m, defs);
    stream::StreamMonitor sm(m, stream_config());
    sm.set_event_sink([](const stream::ObjectStream&, const stream::MavgEvent&) {});
    flow::Collector c(spec.protocol,
                      flow::Collector::BatchSink(
                          [&](std::span<const flow::FlowRecord> b) { m.route_batch(b); }),
                      nullptr, spec.protocol == flow::ExportProtocol::kNetflowV9);
    const std::uint64_t a = now_ns();
    for (std::size_t i = 0; i < n; ++i) c.ingest(pool.packets.packet(i));
    (void)sm.poll();
    per_record.add(static_cast<double>(now_ns() - a) / records);
  }
  return per_record.median();
}

// --- Measuring a workload ----------------------------------------------------

/// Interquartile mean, over the 250 ms schedule segments of every
/// open-loop pass, of each segment's q-quantile. A run too short for a full
/// segment uses its first one.
double seg_quantile(const std::vector<PassResult>& passes, double q,
                    std::vector<Samples> PassResult::*segs) {
  Samples per;
  for (const PassResult& p : passes) {
    for (const Samples& s : p.*segs) {
      if (!p.closed && s.count() >= kMinSegmentSamples) per.add(s.quantile(q));
    }
  }
  for (const PassResult& p : passes) {
    if (per.empty() && !p.closed && !(p.*segs).empty()) {
      per.add((p.*segs).front().quantile(q));
    }
  }
  return per.iqm();
}

struct Summary {
  double records_per_s = 0, cpu_ns_per_record = 0, spool_p50_ms = 0,
         spool_p99_ms = 0, late_p99_ms = 0;
  /// v9: the wire lane's measured part of cpu_ns_per_record.
  double lane_cpu_ns_per_record = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> invalid;
};

/// After an unmeasured warm-up: the open-loop passes, then, for
/// closed-loop workloads, closed passes until `seconds` is spent. Loss and
/// validity are judged here; outputs are checked once the replay exists.
Summary measure(const Spec& spec, const Pool& pool, const synth::AsRegistry& reg,
                const std::vector<analysis::MonitorDefinition>& defs,
                double seconds, int open_passes, bool traced,
                std::vector<PassResult>& passes, bool tiny) {
  Summary s;
  const std::uint64_t start = now_ns();
  const std::uint64_t steal0 = steal_ns();
  const std::uint64_t seed = pool.seed;
  // The first pass of a process pays for page faults and allocator growth
  // that later passes reuse.
  (void)run_pass(spec, pool, reg, defs, true, traced,
                 std::min(pool.size(), kWarmupDatagrams), seed);
  for (int i = 0; i < open_passes; ++i) {
    passes.push_back(
        run_pass(spec, pool, reg, defs, false, traced, pool.size(), seed + 7919 * i));
  }
  if (spec.closed_loop) {
    do {
      passes.push_back(
          run_pass(spec, pool, reg, defs, true, traced, pool.size(), seed));
    } while (static_cast<double>(now_ns() - start) / 1e9 < seconds &&
             !(tiny && passes.size() >= 3));
  }

  // CPU per record. With a closed loop, the lane and shard threads per
  // closed-loop pass: they are busy with records there. Without one (v9),
  // the lane thread per open-loop segment plus the shard work replayed in
  // isolation: between datagrams at the open-loop rate the shard workers
  // spin and yield before they sleep, and that polling, set by the gaps
  // between datagrams rather than by the work, is ~90% of their schedstat
  // time; it would hide most of any change to decoding or routing. The
  // lane thread sleeps in epoll_wait when idle, so its time is work.
  Samples closed_rates, open_rates, cpu, lane_cpu, runq;
  for (const PassResult& p : passes) {
    (p.closed ? closed_rates : open_rates)
        .add(static_cast<double>(p.spooled_records) / p.wall_s);
    if (p.closed) {
      cpu.add(ratio(static_cast<double>(p.lanes.run_ns + p.shards.run_ns),
                    static_cast<double>(p.spooled_records)));
    } else {
      for (const double v : p.seg_lane_cpu_ns) lane_cpu.add(v);
    }
    for (const double v : p.seg_runq) runq.add(v);
  }
  const PassResult& open = passes.front();
  s.records_per_s = spec.closed_loop ? closed_rates.iqm() : open_rates.iqm();
  s.lane_cpu_ns_per_record = lane_cpu.iqm();
  s.cpu_ns_per_record = spec.closed_loop ? cpu.iqm() : s.lane_cpu_ns_per_record;
  s.spool_p50_ms = seg_quantile(passes, 0.5, &PassResult::seg_latency_ms);
  s.spool_p99_ms = seg_quantile(passes, 0.99, &PassResult::seg_latency_ms);
  s.late_p99_ms = seg_quantile(passes, 0.99, &PassResult::seg_late_ms);

  std::cout << "  open loop @ " << spec.open_rate << " datagrams/s: "
            << open_rates.count() << " pass(es) of " << open.datagrams
            << " datagrams, " << open.sent_records << " records, "
            << num(open.wall_s) << " s each\n    spool latency p50 "
            << num(s.spool_p50_ms) << " ms, p99 " << num(s.spool_p99_ms)
            << " ms (interquartile means over segments of 250 ms; first pass, all "
            << open.latency_ms.count() << " samples: p50 "
            << num(open.latency_ms.median()) << ", p99 "
            << num(open.latency_ms.quantile(0.99)) << ", max "
            << num(open.latency_ms.quantile(1.0)) << ")\n    generator late p99 "
            << num(s.late_p99_ms) << " ms; open-loop CPU ns/record (first pass: lane "
            << num(ratio(static_cast<double>(open.lanes.run_ns),
                         static_cast<double>(open.spooled_records)))
            << ", shards "
            << num(ratio(static_cast<double>(open.shards.run_ns),
                         static_cast<double>(open.spooled_records)))
            << "); run-queue share " << num(runq.median()) << "\n";
  if (spec.closed_loop) {
    std::cout << "  closed loop (" << kClosedWindow << " datagrams in flight): "
              << closed_rates.count() << " passes, records/s interquartile mean "
              << num(closed_rates.iqm()) << ", min " << num(closed_rates.quantile(0.0))
              << ", max " << num(closed_rates.quantile(1.0)) << "\n";
  }
  if (spec.closed_loop) {
    std::cout << "  cpu_ns_per_record " << num(s.cpu_ns_per_record)
              << " (closed-loop passes, lane + shard threads)\n";
  }

  for (const PassResult& p : passes) {
    s.attempted += p.sent_records;
    const std::uint64_t lost = p.sent_records - std::min(p.sent_records, p.spooled_records);
    s.failed += lost;
    if (lost > 0) {
      std::cout << "  loss: " << lost << " of " << p.sent_records
                << " records (sender drops " << p.gen_dropped << ", kernel drops "
                << p.kernel_drops << ", ring drops " << p.engine.dropped
                << ", malformed " << p.wire_stats.malformed_packets << ")\n";
    }
    if (!p.closed) continue;
    const double threads = static_cast<double>(p.lane_threads + p.shard_threads);
    const double share = ratio(static_cast<double>(p.lanes.wait_ns + p.shards.wait_ns),
                               p.wall_s * 1e9 * threads);
    if (share > kMaxRunqShare) {
      s.invalid.push_back("closed loop: system threads spent " + num(share) +
                          " of their time waiting in the run queue");
    }
    if (p.kernel_drops > 0 || p.engine.dropped > 0) {
      s.invalid.push_back("closed loop saw " + std::to_string(p.kernel_drops) +
                          " kernel and " + std::to_string(p.engine.dropped) +
                          " ring drops");
    }
  }
  if (s.late_p99_ms > kMaxLateP99Ms) {
    s.invalid.push_back("open-loop generator ran behind schedule (late p99 " +
                        num(s.late_p99_ms) + " ms)");
  }
  if (runq.median() > kMaxRunqShare) {
    s.invalid.push_back("open loop: system threads spent " + num(runq.median()) +
                        " of their time waiting in the run queue");
  }
  const double stolen = steal_share(steal0, static_cast<double>(now_ns() - start));
  if (stolen > kMaxStealShare) {
    s.invalid.push_back("the hypervisor withheld " + num(stolen) + " of the CPU time");
  }
  std::cout << "  loss_ratio: "
            << num(ratio(static_cast<double>(s.failed), static_cast<double>(s.attempted)))
            << " (" << s.failed << " of " << s.attempted << " records); CPU steal share "
            << num(stolen) << "\n";
  return s;
}

/// Totals over the open-loop or the closed-loop passes of a run.
struct Phase {
  const char* name = "";
  SchedTime lanes, shards;
  std::uint64_t records = 0, datagrams = 0;
  double wall_ns = 0;   ///< summed pass wall time
  double route_ns = 0;  ///< in-situ route_batch time
  std::size_t lane_threads = 0, shard_threads = 0;

  [[nodiscard]] double per_record(std::uint64_t ns) const {
    return ratio(static_cast<double>(ns), static_cast<double>(records));
  }
  [[nodiscard]] double share(std::uint64_t ns, std::size_t threads) const {
    return ratio(static_cast<double>(ns), wall_ns * static_cast<double>(threads));
  }
};

Phase phase_totals(const std::vector<PassResult>& passes, bool closed) {
  Phase ph;
  ph.name = closed ? "closed loop" : "open loop";
  for (const PassResult& p : passes) {
    if (p.closed != closed) continue;
    ph.lanes += p.lanes;
    ph.shards += p.shards;
    ph.records += p.spooled_records;
    ph.datagrams += p.plane_datagrams;
    ph.wall_ns += p.wall_s * 1e9;
    ph.route_ns += p.route_ns_per_record * static_cast<double>(p.spooled_records);
    ph.lane_threads = p.lane_threads;
    ph.shard_threads = p.shard_threads;
  }
  return ph;
}

/// The bottleneck thread's layers summed against its measured CPU, with
/// the unattributed remainder; then the same for the wire lane.
void print_budget(const Spec& spec, const Phase& ph, const Isolated& iso) {
  const double shard_ns = ph.per_record(ph.shards.run_ns);
  const double lane_ns = ph.per_record(ph.lanes.run_ns);
  const double decode = iso.decode_ns_per_record;
  const double route = ratio(ph.route_ns, static_cast<double>(ph.records));
  const auto row = [](const std::string& a, double v) {
    return std::vector<std::string>{a, num(std::round(v * 10) / 10)};
  };
  const std::string title = std::string("budget, ") + spec.name + " (" + ph.name + ", " +
                            std::to_string(ph.shard_threads) + " shard thread(s) busy " +
                            num(std::round(ph.share(ph.shards.run_ns, ph.shard_threads) * 1000) / 1000) +
                            ")";
  print_table(title + ": shard threads, ns/record",
              {{"layer", "ns/record"},
               row("flow.decode (isolated Collector::ingest)", decode),
               row("filter.route (in situ route_batch)", route),
               row("  of which filter.match (isolated, no stream)", iso.match_ns_per_record),
               row("  of which filter.columns (isolated FlowColumns::build)",
                   iso.columns_ns_per_record),
               row("  of which stream.window (isolated, with - without)",
                   iso.window_ns_per_record),
               row("attributed (decode + route)", decode + route),
               row("measured shard CPU (schedstat)", shard_ns),
               row("unattributed (rings, tickets, idle polling)", shard_ns - decode - route)});
  print_table(std::string("budget, ") + spec.name + " (" + ph.name +
                  "): wire lane thread, ns/record",
              {{"layer", "ns/record"},
               row("flow.spool (isolated SliceSpooler::append, runs in poll)",
                   iso.spool_ns_per_record),
               row("measured lane CPU (schedstat)", lane_ns),
               row("unattributed (receive, tickets, rings)", lane_ns - iso.spool_ns_per_record)});
}

Outcome run_live(const Spec& spec, const RunConfig& cfg) {
  static const std::uint32_t setup_id = SpanLog::instance().id("setup", "setup");
  const bool v9 = spec.protocol == flow::ExportProtocol::kNetflowV9;
  // The open loop covers the whole pool once, so the pool size sets its
  // length: the IXP pool is fixed, the v9 pool fills the measured seconds.
  const double open_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const std::size_t target =
      cfg.tiny ? kTinyRecords
               : v9 ? static_cast<std::size_t>(spec.open_rate * open_seconds * 2.4)
                    : kIxpRecords;

  // Set-up: registry, synthesis + encoding, DSL compilation, and one
  // pipeline start, timed repeatedly (kSetups, kSetupSeconds), each time on
  // the next CPU; the median is setup_s and the last set-up is kept.
  std::optional<synth::AsRegistry> registry;
  Pool pool;
  std::vector<analysis::MonitorDefinition> defs;
  const bool once = cfg.tiny || cfg.trace;
  const Samples setup_s = timed_runs(once ? 1 : kSetups, once ? 0 : kSetupSeconds, [&] {
    registry.reset();
    pool = Pool{};
    const Span s(setup_id);
    registry.emplace(synth::AsRegistry::create_default());
    pool = v9 ? build_v9_pool(*registry, cfg.seed, target)
              : build_ixp_pool(*registry, cfg.seed, target);
    defs = analysis::dsl_monitor_definitions(analysis::AppClassifier::table1());
    const Pipeline warm(spec, *registry, defs, false);
  });
  std::cout << "  setup: " << pool.synthesized << " records synthesized, "
            << pool.size() << " datagrams (" << pool.packets.total_bytes()
            << " bytes), " << pool.total_records << " records on the wire; setup_s "
            << num(setup_s.median()) << " (median of " << setup_s.count() << ", min "
            << num(setup_s.quantile(0)) << ", max " << num(setup_s.quantile(1)) << ")\n";
  const PeakRssGrowth rss;

  // Timer slack 1 us: the open-loop sender sleeps between datagrams.
  (void)prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  Outcome out;
  std::vector<PassResult> passes;
  std::vector<PassResult> traced_passes;
  // A traced run splits --seconds between an untraced and a traced half,
  // each with one open-loop pass.
  const int open_passes = cfg.trace ? 1 : spec.open_passes;
  std::cout << " untraced passes:\n";
  Summary plain = measure(spec, pool, *registry, defs,
                          cfg.trace ? cfg.seconds / 2 : cfg.seconds, open_passes, false,
                          passes, cfg.tiny);
  Summary traced;
  if (cfg.trace) {
    std::cout << " traced passes:\n";
    traced = measure(spec, pool, *registry, defs, cfg.seconds / 2, open_passes, true,
                     traced_passes, cfg.tiny);
  }
  const double peak_rss_mb = rss.growth_mib();
  if (!spec.closed_loop) {
    const double shard_work =
        shard_work_ns_per_record(spec, pool, *registry, defs, cfg.tiny);
    std::cout << "  cpu_ns_per_record " << num(plain.lane_cpu_ns_per_record + shard_work)
              << " = wire lane " << num(plain.lane_cpu_ns_per_record)
              << " (schedstat, interquartile mean over open-loop segments) + shard work "
              << num(shard_work) << " (isolated decode + route + windows)\n";
    plain.cpu_ns_per_record += shard_work;
    traced.cpu_ns_per_record += shard_work;
  }
  // Output checks, after the timed phase. A pass that lost records already
  // counts them as failed; a loss-free pass that differs fails whole.
  const Outputs ref = replay(spec, pool, *registry, defs);
  for (const auto* set : {&passes, &traced_passes}) {
    for (const PassResult& p : *set) {
      const std::string why = compare(p.out, ref, spec.shards == 1);
      if (!why.empty() && p.spooled_records == p.sent_records) {
        std::cout << "  OUTPUT CHECK FAILED (" << (p.closed ? "closed" : "open")
                  << " loop): " << why << "\n";
        out.correct = false;
      }
    }
  }
  out.attempted = plain.attempted + traced.attempted;
  out.failed = out.correct ? plain.failed + traced.failed : out.attempted;
  out.invalid = plain.invalid;
  out.invalid.insert(out.invalid.end(), traced.invalid.begin(), traced.invalid.end());
  std::cout << "  output checks ("
            << (spec.shards == 1 ? "slices, monitor totals, every window"
                                 : "slices, monitor totals, per-object window totals")
            << " vs wire-order replay): " << (out.correct ? "PASS" : "FAIL") << "\n";

  out.end_to_end = {
      {"records_per_s", plain.records_per_s},
      {"cpu_ns_per_record", plain.cpu_ns_per_record},
      {"spool_p50_ms", plain.spool_p50_ms},
      {"spool_p99_ms", plain.spool_p99_ms},
      {"setup_s", setup_s.median()},
      {"peak_rss_mb", peak_rss_mb},
  };
  if (!cfg.trace) return out;

  // Per-layer metrics from the traced passes. The shard layers are read
  // where the shard is the bottleneck: the closed loop, when there is one.
  const Isolated iso = isolated_layers(spec, pool, *registry, defs);
  const PassResult& open = traced_passes.front();
  const Phase opened = phase_totals(traced_passes, false);
  const Phase busy = spec.closed_loop ? phase_totals(traced_passes, true) : opened;
  double shard_max = 0, shard_sum = 0;
  for (const auto& sh : open.engine.shards) {
    shard_max = std::max(shard_max, static_cast<double>(sh.records));
    shard_sum += static_cast<double>(sh.records);
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  out.per_layer = {
      {"synth.ns_per_record", ratio(d(pool.synth_ns), d(pool.synthesized))},
      {"flow.encode.ns_per_record", ratio(d(pool.encode_ns), d(pool.total_records))},
      {"flow.decode.ns_per_record", iso.decode_ns_per_record},
      {"flow.decode.ns_per_datagram", iso.decode_ns_per_datagram},
      {"flow.decode.malformed", d(open.wire_stats.malformed_packets)},
      {"flow.decode.templates", d(open.wire_stats.templates)},
      {"flow.spool.ns_per_record", iso.spool_ns_per_record},
      {"flow.spool.slices", d(open.slices)},
      {"net.wire.datagrams_per_syscall", ratio(d(open.plane_datagrams), d(open.plane_syscalls))},
      {"net.wire.kernel_drops", d(open.kernel_drops)},
      {"net.wire.truncated", d(open.truncated)},
      {"net.wire.cpu_ns_per_datagram", ratio(d(opened.lanes.run_ns), d(opened.datagrams))},
      {"net.wire.busy_frac", opened.share(opened.lanes.run_ns, opened.lane_threads)},
      {"net.wire.runq_wait_frac", opened.share(opened.lanes.wait_ns, opened.lane_threads)},
      {"runtime.ring_dropped", d(open.engine.dropped)},
      {"runtime.queue_high_water", d(open.engine.queue_high_water)},
      {"runtime.arena_reuse_ratio", ratio(d(open.arena.reused), d(open.arena.acquired))},
      {"runtime.shard.cpu_ns_per_record", busy.per_record(busy.shards.run_ns)},
      {"runtime.shard.busy_frac", busy.share(busy.shards.run_ns, busy.shard_threads)},
      {"runtime.shard.runq_wait_frac", busy.share(busy.shards.wait_ns, busy.shard_threads)},
      {"runtime.shard_skew", ratio(shard_max, shard_sum / d(std::max<std::size_t>(open.engine.shards.size(), 1)))},
      {"runtime.release_lag_p99_ms", open.release_lag_ms.quantile(0.99)},
      {"filter.route.ns_per_record", ratio(busy.route_ns, d(busy.records))},
      {"filter.match.ns_per_record", iso.match_ns_per_record},
      {"filter.columns.ns_per_record", iso.columns_ns_per_record},
      {"filter.hits_per_record", open.hits_per_record},
      {"stream.window.ns_per_record", iso.window_ns_per_record},
      {"stream.poll_us", open.poll_us.mean()},
      {"stream.windows", d(open.windows)},
      {"stream.window_lag_p99_ms", open.window_lag_ms.quantile(0.99)},
      {"obs.snapshot_us", open.snapshot_us.median()},
      {"gen.late_p99_ms", traced.late_p99_ms},
      {"gen.cpu_ns_per_datagram", ratio(d(open.owner.run_ns), d(open.datagrams))},
  };
  out.not_applicable = {
      "flow.trace.read_ns_per_record", "analysis.scan.feed_ns_per_record",
      "analysis.scan.lane_busy_frac", "analysis.scan.finish_ms", "analysis.render_ms",
      "analysis.agg.volume.ns_per_record", "analysis.agg.ports.ns_per_record",
      "analysis.agg.hypergiants.ns_per_record", "analysis.agg.heatmap.ns_per_record",
      "analysis.agg.vpn.ns_per_record", "analysis.agg.monitors.ns_per_record"};
  print_budget(spec, busy, iso);
  const auto overhead = [](double traced_v, double plain_v) {
    return plain_v == 0 ? std::string("-") : num(std::round((traced_v / plain_v - 1) * 1000) / 10) + "%";
  };
  print_table("tracing overhead (traced vs untraced passes of this run)",
              {{"metric", "untraced", "traced", "change"},
               {"records_per_s", num(plain.records_per_s), num(traced.records_per_s),
                overhead(traced.records_per_s, plain.records_per_s)},
               {"cpu_ns_per_record", num(plain.cpu_ns_per_record), num(traced.cpu_ns_per_record),
                overhead(traced.cpu_ns_per_record, plain.cpu_ns_per_record)},
               {"spool_p50_ms", num(plain.spool_p50_ms), num(traced.spool_p50_ms),
                overhead(traced.spool_p50_ms, plain.spool_p50_ms)},
               {"spool_p99_ms", num(plain.spool_p99_ms), num(traced.spool_p99_ms),
                overhead(traced.spool_p99_ms, plain.spool_p99_ms)}});
  return out;
}

}  // namespace

Outcome run_ixp_ipfix_live(const RunConfig& cfg) { return run_live(kIxpSpec, cfg); }
Outcome run_isp_v9_many_exporters(const RunConfig& cfg) { return run_live(kV9Spec, cfg); }

}  // namespace perfbench
