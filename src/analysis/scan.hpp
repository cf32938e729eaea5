// Parallel slice-scan engine (DESIGN.md §15).
//
// ScanPool shards a flow-record stream across N worker threads in fixed-
// size chunks: the feeder cuts chunks round-robin onto per-worker bounded
// queues, each worker builds the batch's shared filter::FlowColumns once
// (service keys + resolved endpoint ASes) and hands (worker index, records,
// columns) to the supplied callback. With threads <= 1 everything runs
// inline on the calling thread with zero copies.
//
// ScanEngine<Bundle> layers thread-local aggregation on top: one Bundle
// (any type with `add_batch(span, const FlowColumns&)` and
// `merge(const Bundle&)`) per worker, fed only from that worker's thread,
// merged in worker-index order by finish(). Because every aggregator bin
// is a sum of exactly-representable integers (util::counter_to_double),
// the merged result is BIT-IDENTICAL to a single-threaded run regardless
// of how the stream was sharded -- the determinism the figure-export
// `--scan-threads` flag relies on.
//
// synthesize_through_wire() is the one way a synthesized stream reaches
// the analyzers: every record crosses the vantage point's wire protocol
// (encode -> datagrams -> decode) and arrives as one span per decoded
// datagram, fed to a ScanEngine or a span callback. add_record() is the
// adapter for the remaining record-at-a-time producers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "filter/plan.hpp"
#include "flow/anonymizer.hpp"
#include "flow/flow_record.hpp"
#include "flow/pipeline.hpp"
#include "net/civil_time.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"

namespace lockdown::analysis {

class ScanPool {
 public:
  static constexpr std::size_t kDefaultChunkRecords = 4096;
  /// Chunks a worker may have queued before the feeder blocks: bounds
  /// memory to threads * kMaxQueuedChunks * chunk_records records.
  static constexpr std::size_t kMaxQueuedChunks = 4;

  using BatchFn = std::function<void(unsigned worker,
                                     std::span<const flow::FlowRecord> records,
                                     const filter::FlowColumns& cols)>;

  /// `fn` is called with worker indices in [0, max(1, threads)); for a
  /// given worker index all calls come from one thread. `trie` is the
  /// routing snapshot for the AS columns (may be null: annotation-only).
  ScanPool(unsigned threads, BatchFn fn, const filter::AsnTrie* trie = nullptr,
           std::size_t chunk_records = kDefaultChunkRecords);
  ~ScanPool();
  ScanPool(const ScanPool&) = delete;
  ScanPool& operator=(const ScanPool&) = delete;

  /// Enqueue records. Inline (threads <= 1) this processes the span
  /// directly; threaded it copies into chunk buffers and may block on
  /// queue backpressure.
  void feed(std::span<const flow::FlowRecord> records);

  /// Flush the partial trailing chunk, signal completion and join the
  /// workers. Idempotent; the destructor calls it.
  void finish();

  /// Number of worker lanes (= number of distinct worker indices): 1 for
  /// the inline pool.
  [[nodiscard]] unsigned lanes() const noexcept { return lanes_; }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<std::vector<flow::FlowRecord>> chunks;
    bool done = false;
  };

  void worker_main(unsigned index);
  void dispatch(std::vector<flow::FlowRecord>&& chunk);
  [[nodiscard]] std::vector<flow::FlowRecord> take_buffer();
  void recycle_buffer(std::vector<flow::FlowRecord>&& buf);

  unsigned lanes_;
  std::size_t chunk_records_;
  BatchFn fn_;
  const filter::AsnTrie* trie_;
  bool finished_ = false;

  // Inline path (lanes_ == 1, no worker threads).
  filter::FlowColumns inline_cols_;

  // Threaded path.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::vector<flow::FlowRecord> pending_;
  std::size_t next_worker_ = 0;
  std::mutex free_mu_;
  std::vector<std::vector<flow::FlowRecord>> free_buffers_;
};

/// Thread-local-aggregate + deterministic-reduce harness over ScanPool.
/// Bundle requirements:
///   void add_batch(std::span<const flow::FlowRecord>,
///                  const filter::FlowColumns&);
///   void merge(const Bundle&);
template <typename Bundle>
class ScanEngine {
 public:
  /// One factory() bundle per worker lane. The factory runs on the
  /// constructing thread.
  ScanEngine(unsigned threads, const std::function<Bundle()>& factory,
             const filter::AsnTrie* trie = nullptr,
             std::size_t chunk_records = ScanPool::kDefaultChunkRecords) {
    const unsigned n = threads == 0 ? 1u : threads;
    bundles_.reserve(n);
    for (unsigned i = 0; i < n; ++i) bundles_.push_back(factory());
    pool_.emplace(
        threads,
        [this](unsigned worker, std::span<const flow::FlowRecord> records,
               const filter::FlowColumns& cols) {
          bundles_[worker].add_batch(records, cols);
        },
        trie, chunk_records);
  }

  ScanEngine(const ScanEngine&) = delete;
  ScanEngine& operator=(const ScanEngine&) = delete;

  void feed(std::span<const flow::FlowRecord> records) {
    pool_->feed(records);
  }

  /// Join the workers and reduce: bundles are merged into bundle 0 in
  /// worker-index order (the merge is order-independent anyway -- exact
  /// integer sums -- but a fixed order keeps the reduction auditable).
  /// Idempotent; returns the merged bundle.
  Bundle& finish() {
    if (!reduced_) {
      pool_->finish();
      for (std::size_t i = 1; i < bundles_.size(); ++i) {
        bundles_[0].merge(bundles_[i]);
      }
      reduced_ = true;
    }
    return bundles_[0];
  }

  [[nodiscard]] unsigned lanes() const noexcept { return pool_->lanes(); }

 private:
  std::vector<Bundle> bundles_;
  std::optional<ScanPool> pool_;
  bool reduced_ = false;
};

/// Synthesizes `range` at `vp` and delivers every record through the
/// vantage point's wire protocol to `sink`, one span per decoded datagram
/// (anonymized first when `anonymizer` is set). Returns the collector
/// statistics of the crossing.
flow::CollectorStats synthesize_through_wire(
    const synth::VantagePoint& vp, const synth::AsRegistry& registry,
    net::TimeRange range, const synth::SynthesisConfig& config,
    flow::Collector::BatchSink sink,
    const flow::Anonymizer* anonymizer = nullptr);

/// The same crossing, with the decoded datagrams fed to `engine`'s lanes.
template <typename Bundle>
flow::CollectorStats synthesize_through_wire(
    const synth::VantagePoint& vp, const synth::AsRegistry& registry,
    net::TimeRange range, const synth::SynthesisConfig& config,
    ScanEngine<Bundle>& engine, const flow::Anonymizer* anonymizer = nullptr) {
  return synthesize_through_wire(
      vp, registry, range, config,
      [&engine](std::span<const flow::FlowRecord> batch) { engine.feed(batch); },
      anonymizer);
}

/// The 1-record adapter: hands `r` to `consumer.add_batch` as a one-record
/// batch with its own FlowColumns, built against `trie` (the routing
/// snapshot the consumer's AS lookups assume; null = annotations only).
template <typename Consumer>
void add_record(Consumer& consumer, const flow::FlowRecord& r,
                const filter::AsnTrie* trie = nullptr) {
  thread_local filter::FlowColumns cols;
  const std::span<const flow::FlowRecord> one(&r, 1);
  cols.build(one, trie);
  consumer.add_batch(one, cols);
}

}  // namespace lockdown::analysis
