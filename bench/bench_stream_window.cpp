// Micro-benchmark for the double-banked window aggregator (DESIGN.md §13):
// ingest cost with a quiescent window clock vs ingest under a continuously
// rotating + draining flusher. The whole point of the two-bank design is
// that retiring a window never blocks route_batch, so the gated quantity
// is the RATIO quiescent/under-flush (~1.0 when healthy; it collapses
// below the 0.75 floor if rotation starts holding the ingest path). The
// reproduction section prints per-batch latency percentiles for both
// modes -- the p99 is the number the acceptance criterion names.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "filter/monitor.hpp"
#include "stream/engine.hpp"

namespace lockdown::bench {
namespace {

using flow::FlowRecord;
using net::Timestamp;
using stream::WindowAggregator;

[[nodiscard]] WindowAggregator::Config window_config() {
  return {.window_seconds = 3600,
          .key = {stream::KeyField::kDstAs, stream::KeyField::kService}};
}

/// Two lockdown-evening hours at the IXP: realistic dst_as/service key
/// cardinality for the keyed bank merges.
[[nodiscard]] const std::vector<FlowRecord>& records() {
  static const std::vector<FlowRecord> recs = [] {
    const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe,
                                         registry(), {.seed = 42});
    std::vector<FlowRecord> out;
    analysis::synthesize_through_wire(
        vp, registry(),
        net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 19),
                       net::Timestamp::from_date(net::Date(2020, 3, 25), 21)},
        synth_config(600), [&](std::span<const FlowRecord> batch) {
          out.insert(out.end(), batch.begin(), batch.end());
        });
    return out;
  }();
  return recs;
}

/// Rotate + drain a window every ~200us until told to stop: thousands of
/// flushes per second racing the ingest path -- far beyond any real
/// rotation cadence -- while leaving the CPU to the thread being measured
/// (a spinning flusher on a single-core runner would just measure core
/// contention, not blocking).
class Flusher {
 public:
  explicit Flusher(WindowAggregator& agg)
      : thread_([this, &agg]() {
          std::int64_t t = 0;
          bool anchored = false;
          while (!stop_.load(std::memory_order_relaxed)) {
            if (!anchored) {
              if (const auto begin = agg.current_window_begin()) {
                t = begin->seconds();
                anchored = true;
              }
            } else {
              t += agg.config().window_seconds;
              agg.advance(Timestamp(t));
              agg.drain([](stream::WindowResult&&) {});
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~Flusher() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

void print_reproduction() {
  std::cout << "=== Double-banked windows: ingest under concurrent flush ===\n\n";
  const auto& recs = records();
  constexpr std::size_t kBatch = 256;

  // Per-batch accumulate latencies, quiescent vs under continuous flush.
  const auto run_mode = [&](bool flushing) {
    WindowAggregator agg(window_config());
    std::optional<Flusher> flusher;
    if (flushing) flusher.emplace(agg);
    std::vector<double> ns;
    constexpr int kPasses = 20;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t off = 0; off < recs.size(); off += kBatch) {
        const auto n = std::min(kBatch, recs.size() - off);
        const std::span<const FlowRecord> batch(recs.data() + off, n);
        const auto t0 = std::chrono::steady_clock::now();
        agg.accumulate(batch, {});
        const auto t1 = std::chrono::steady_clock::now();
        ns.push_back(
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count()) /
            static_cast<double>(n));
      }
    }
    std::sort(ns.begin(), ns.end());
    const auto at = [&](double q) {
      return ns[std::min(ns.size() - 1,
                         static_cast<std::size_t>(q * static_cast<double>(
                                                          ns.size())))];
    };
    double sum = 0.0;
    for (const double v : ns) sum += v;
    return std::array<double, 3>{sum / static_cast<double>(ns.size()),
                                 at(0.50), at(0.99)};
  };

  const auto quiet = run_mode(false);
  const auto flushed = run_mode(true);
  util::Table table({"mode", "mean ns/rec", "p50", "p99"});
  table.add_row({"quiescent", fmt(quiet[0]), fmt(quiet[1]), fmt(quiet[2])});
  table.add_row(
      {"under flush", fmt(flushed[0]), fmt(flushed[1]), fmt(flushed[2])});
  std::cout << table;
  std::cout << "\nrecords: " << records().size()
            << "  batch: " << kBatch
            << "  mean ratio quiescent/under-flush: "
            << fmt(quiet[0] / flushed[0])
            << " (floor 0.75)  p99 ratio: " << fmt(quiet[2] / flushed[2])
            << "\n\n";
}

void BM_WindowAccumulateQuiescent(benchmark::State& state) {
  const auto& recs = records();
  WindowAggregator agg(window_config());
  for (auto _ : state) {
    agg.accumulate(recs, {});
    benchmark::DoNotOptimize(agg.windows_completed());
  }
  agg.drain([](stream::WindowResult&&) {});
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_WindowAccumulateQuiescent)->Unit(benchmark::kMillisecond);

void BM_WindowAccumulateUnderFlush(benchmark::State& state) {
  const auto& recs = records();
  WindowAggregator agg(window_config());
  Flusher flusher(agg);
  for (auto _ : state) {
    agg.accumulate(recs, {});
    benchmark::DoNotOptimize(agg.windows_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_WindowAccumulateUnderFlush)->Unit(benchmark::kMillisecond);

// Context series (not ratio-gated): the full monitor layer with streaming
// hooks attached -- what live_collector's ship loop pays per batch.
void BM_MonitorRouteBatchStreaming(benchmark::State& state) {
  filter::MonitorSet set(&registry().trie());
  set.add("web", "proto tcp and dst port 443,80");
  set.add("vpn", "proto udp and dst port 1194,4500,500");
  stream::StreamMonitor streamer(
      set, {.window = window_config()});
  const auto& recs = records();
  for (auto _ : state) {
    set.route_batch(recs);
  }
  (void)streamer.poll();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_MonitorRouteBatchStreaming)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
