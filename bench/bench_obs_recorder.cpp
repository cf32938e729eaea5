// Flight-recorder + profiler overhead benches (DESIGN.md section 16).
// Two quantities carry acceptance bars:
//
//   - the recorder's sampling tick (a registry snapshot plus a few
//     hundred ring stores) must stay cheap enough to run at 1 Hz inside
//     the exposer loop without disturbing scrapes -- measured per tick
//     against registry size;
//   - ingest throughput with the 97 Hz sampling profiler armed must stay
//     >= 0.97x of profiler-off (bench_compare.py gates the
//     BM_IngestProfilerOff / BM_IngestProfilerOn ratio).
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "flow/collector_daemon.hpp"
#include "flow/ipfix.hpp"
#include "flow/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace lockdown::bench {
namespace {

void print_reproduction() {
  std::cout << "=== flight recorder / profiler overhead ===\n"
            << "(no paper figure; cost of the always-available history\n"
            << " ring and the in-process sampling profiler. Budgets:\n"
            << " one recorder tick well under a millisecond at realistic\n"
            << " registry sizes, and profiler-on ingest >= 0.97x of\n"
            << " profiler-off -- bench_compare.py gates the ratio.)\n\n";
}

/// A registry shaped like a live collector's: counters, gauges, and a few
/// histograms, `series` exposition rows in total.
void populate_registry(obs::Registry& registry, std::size_t series) {
  const auto buckets = obs::exponential_buckets(0.25, 4.0, 8);
  std::size_t made = 0;
  for (std::size_t i = 0; made + 12 < series; ++i) {
    const std::string label = "shard=\"" + std::to_string(i) + "\"";
    registry.counter("bench_records_total", label, "h").add(i * 97);
    registry.counter("bench_drops_total", label, "h").add(i);
    registry.gauge("bench_depth", label, "h").set(static_cast<double>(i));
    made += 3;
    if (i % 4 == 0) {
      auto& h = registry.histogram("bench_latency_ms", buckets, label, "h");
      h.observe(0.5);
      h.observe(300.0);
      made += buckets.size() + 3;  // buckets + +Inf + count + sum
    }
  }
}

void BM_RecorderSample(benchmark::State& state) {
  obs::Registry registry;
  populate_registry(registry, static_cast<std::size_t>(state.range(0)));
  obs::MetricsRecorder recorder(registry, {.capacity = 512});
  auto& moving = registry.counter("bench_moving_total", {}, "h");
  for (auto _ : state) {
    moving.add(1);  // every tick records at least one fresh delta
    recorder.sample();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["series"] = benchmark::Counter(
      static_cast<double>(recorder.series()));
}
BENCHMARK(BM_RecorderSample)->Arg(64)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_HistoryQueryFullRing(benchmark::State& state) {
  // GET /history's reconstruction cost at a full 512-slot ring over a
  // realistic registry: prefix sums over every retained slot per series.
  obs::Registry registry;
  populate_registry(registry, 256);
  obs::MetricsRecorder recorder(registry, {.capacity = 512});
  auto& moving = registry.counter("bench_moving_total", {}, "h");
  for (std::size_t i = 0; i < 512; ++i) {
    moving.add(1);
    recorder.sample();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.query("*", 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistoryQueryFullRing)->Unit(benchmark::kMicrosecond);

void BM_HistoryJsonExport(benchmark::State& state) {
  obs::Registry registry;
  populate_registry(registry, 256);
  obs::MetricsRecorder recorder(registry, {.capacity = 512});
  for (std::size_t i = 0; i < 512; ++i) recorder.sample();
  for (auto _ : state) {
    benchmark::DoNotOptimize(recorder.to_json("*", 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistoryJsonExport)->Unit(benchmark::kMicrosecond);

/// One encoded day of IPFIX datagrams -- the ingest workload both profiler
/// arms decode through flow::Collector into a SliceSpooler.
const std::vector<std::vector<std::uint8_t>>& ingest_corpus() {
  static const std::vector<std::vector<std::uint8_t>> corpus = [] {
    const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe,
                                         registry(), {.seed = 42});
    const synth::FlowSynthesizer synth(
        vp.model, registry(),
        {.connections_per_hour = 300, .gen_threads = gen_threads()});
    std::vector<flow::FlowRecord> records;
    synth.synthesize(net::TimeRange::day_of(net::Date(2020, 3, 25)),
                     [&](const flow::FlowRecord& r) { records.push_back(r); });
    flow::IpfixEncoder encoder(/*observation_domain=*/700);
    flow::PacketBatch packets;
    std::vector<std::vector<std::uint8_t>> out;
    for (std::size_t begin = 0; begin < records.size(); begin += 4096) {
      const auto chunk = std::span(records).subspan(
          begin, std::min<std::size_t>(4096, records.size() - begin));
      packets.clear();
      encoder.encode_batch(chunk, flow::batch_export_time(chunk), packets);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const auto pkt = packets.packet(i);
        out.emplace_back(pkt.begin(), pkt.end());
      }
    }
    return out;
  }();
  return corpus;
}

void run_ingest(benchmark::State& state) {
  std::size_t records = 0;
  for (auto _ : state) {
    flow::SliceSpooler spooler(900, [](flow::TraceSlice&&) {});
    flow::Collector collector(
        flow::ExportProtocol::kIpfix,
        flow::Collector::BatchSink([&](std::span<const flow::FlowRecord> batch) {
          for (const flow::FlowRecord& r : batch) spooler.append(r);
        }));
    for (const auto& datagram : ingest_corpus()) collector.ingest(datagram);
    spooler.flush();
    records = spooler.records_spooled();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * records));
}

void BM_IngestProfilerOff(benchmark::State& state) {
  obs::CpuProfiler::instance().stop();
  run_ingest(state);
}
BENCHMARK(BM_IngestProfilerOff)->Unit(benchmark::kMillisecond);

void BM_IngestProfilerOn(benchmark::State& state) {
  // 97 Hz -- the /profile default. On a platform without execinfo the
  // profiler never arms and this arm degenerates to profiler-off (ratio
  // 1.0), which is the honest reading there.
  const bool armed = obs::CpuProfiler::instance().start(97);
  run_ingest(state);
  if (armed) obs::CpuProfiler::instance().stop();
  state.counters["profiler_samples"] = benchmark::Counter(
      static_cast<double>(obs::CpuProfiler::instance().samples()));
}
BENCHMARK(BM_IngestProfilerOn)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
