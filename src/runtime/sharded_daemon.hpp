// The collector daemon: shard workers decode and anonymize in parallel,
// while rotation and trace spooling stay serial (a TraceWriter is
// inherently serial). Decoded records come back from the workers as
// per-datagram batches; poll() moves them into the SliceSpooler. This
// mirrors nfcapd's split between packet threads and the file writer.
// runtime::WirePlane feeds it from the sockets; with shards = 1 and one
// wire lane it is the single-socket, single-decoder deployment.
//
// Ordering: arrival-ticket replay. Every accepted datagram draws a dense
// global ticket at ingest (ShardedCollector linearizes the wire lanes
// through one atomic counter); workers cut their output into per-datagram
// batches and complete them under their ticket (the pool's
// ShardDatagramSink fires even for datagrams that decode to nothing);
// dropped datagrams complete an empty batch immediately so the sequence
// never gaps. poll() releases batches strictly in ticket order from a
// reorder board, stopping at the first ticket still being decoded.
//
// The contract: the emitted slices are byte-identical to one
// flow::Collector feeding one SliceSpooler with the datagrams in ticket
// order, for ANY input mix and shard count. With one wire lane the ticket
// sequence is exactly the wire order. With N lanes it is the linearized
// arrival order across the lanes' sockets: each lane's own order (and
// therefore each export source's order, a source being pinned to one
// SO_REUSEPORT queue) is preserved as a subsequence. The determinism
// suites replay exactly that.
//
// The price is head-of-line buffering: records decoded behind a
// still-busy earlier ticket wait on the board (the same bounded backlog
// the rings already imply). poll() is safe from any thread -- it takes the
// merge lock opportunistically and walks away when another thread already
// holds it -- so every wire lane's periodic poll keeps the board drained.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "flow/collector_daemon.hpp"
#include "runtime/sharded_collector.hpp"

namespace lockdown::runtime {

struct ShardedDaemonConfig {
  flow::ExportProtocol protocol = flow::ExportProtocol::kIpfix;
  std::size_t shards = 2;
  std::size_t ring_capacity = 4096;
  std::int64_t rotation_seconds = 300;
  const flow::Anonymizer* anonymizer = nullptr;
  /// Multiply per-record bytes/packets by the exporter-announced sampling
  /// interval (v5 header / v9 options templates) on decode. Flow *counts*
  /// stay unscaled -- rescale those with MonitorSet::set_flow_scale (the
  /// sampler-rescaling contract in filter/monitor.hpp).
  bool rescale_sampled = false;
  /// Concurrent wire threads (see ShardedCollectorConfig::wire_lanes): at
  /// most one thread may ingest on a given lane at a time.
  std::size_t wire_lanes = 1;
  /// Optional metrics registry, forwarded to the ingestion engine (see
  /// ShardedCollectorConfig::metrics). Must outlive the daemon.
  obs::Registry* metrics = nullptr;
  /// Observes every decoded (and, when configured, anonymized) record
  /// batch -- the monitoring-object routing hook
  /// (filter::MonitorSet::batch_sink). Invoked on shard worker threads,
  /// concurrently across shards: the observer must be thread-safe.
  flow::Collector::BatchSink batch_observer;
};

class ShardedCollectorDaemon {
 public:
  ShardedCollectorDaemon(const ShardedDaemonConfig& config, flow::SliceSink sink);

  /// Ingest one datagram from the wire on lane 0. Never blocks; a full
  /// shard ring counts a drop (visible via engine_snapshot().dropped).
  /// Periodically polls so the reorder board stays bounded.
  void ingest(std::span<const std::uint8_t> datagram);

  /// Lane-aware ingest for the multi-socket wire plane: one producer
  /// thread per lane at a time, distinct lanes concurrently. Returns the
  /// datagram's arrival ticket (the replay key), drawn even when the ring
  /// rejects it. `arrival_ns` is the monotonic wire-arrival stamp for the
  /// latency watermarks (0 = stamp now; see ShardedCollector).
  std::uint64_t ingest_lane(std::size_t lane,
                            std::span<const std::uint8_t> datagram,
                            std::uint64_t arrival_ns = 0);

  /// Zero-copy lane ingest: `buf` holds `used` valid bytes (ideally from
  /// acquire_buffer()) and moves into the engine whether or not it is
  /// accepted. The batch-receive path hands kernel-filled arena buffers
  /// straight here.
  std::uint64_t ingest_owned(std::size_t lane, std::vector<std::uint8_t>&& buf,
                             std::uint32_t used, std::uint64_t arrival_ns = 0);

  /// Pooled datagram buffer from the engine's recycle arena. Thread-safe.
  [[nodiscard]] std::vector<std::uint8_t> acquire_buffer(std::size_t size_hint) {
    return runtime_.acquire_buffer(size_hint);
  }

  /// Move completed batches, in ticket order, into the rotation engine.
  /// Callable from any thread: contended calls return immediately (the
  /// holder is already releasing).
  void poll();

  /// Stop the workers, drain everything, and flush the partial slice. No
  /// ingest may follow (stop the wire threads first).
  void flush();

  [[nodiscard]] flow::CollectorStats wire_stats() const {
    return runtime_.merged_stats();
  }
  [[nodiscard]] EngineSnapshot engine_snapshot() const {
    return runtime_.engine_snapshot();
  }
  [[nodiscard]] flow::PacketArena::Stats arena_stats() const {
    return runtime_.arena_stats();
  }
  [[nodiscard]] std::size_t wire_lanes() const noexcept {
    return runtime_.wire_lanes();
  }
  /// Spool counters: safe to read from any thread while the lanes spool.
  [[nodiscard]] std::size_t slices_emitted() const noexcept {
    return spooler_.slices_emitted();
  }
  [[nodiscard]] std::size_t records_spooled() const noexcept {
    return spooler_.records_spooled();
  }

  /// The released watermark: the newest wire-arrival stamp (trace_now_ns
  /// clock) among all datagrams whose batches the ordered merge has
  /// released to the spooler. A running max, so it is monotone by
  /// construction even though tickets complete out of arrival-stamp order
  /// across lanes; 0 until the first release.
  [[nodiscard]] std::uint64_t released_watermark_ns() const noexcept {
    return released_watermark_.load(std::memory_order_acquire);
  }

 private:
  /// One completed per-datagram batch awaiting ordered release.
  struct Slot {
    std::vector<flow::FlowRecord> records;
    std::uint64_t arrival_ns = 0;
    bool ready = false;
  };

  /// The reorder board: completions keyed by arrival ticket. slots[i]
  /// holds ticket base + i; the ready prefix is released by poll().
  struct TicketBoard {
    std::mutex mu;
    std::uint64_t base = 0;
    std::deque<Slot> slots;
    /// Drained batch vectors handed back for reuse, so the steady state
    /// does not allocate per datagram.
    std::vector<std::vector<flow::FlowRecord>> free;
  };

  /// File `records` under `ticket` on the board. When `refill` is set (the
  /// worker completion path), it receives a recycled batch vector.
  /// `arrival_ns` is the datagram's wire-arrival stamp (0 for unstamped
  /// paths), carried to the spool-stage observation at release time.
  void complete(std::uint64_t ticket, std::vector<flow::FlowRecord>&& records,
                std::vector<flow::FlowRecord>* refill,
                std::uint64_t arrival_ns);
  void maybe_poll();
  void poll_locked();

  flow::SliceSpooler spooler_;
  /// Records of the datagram currently being decoded, per shard.
  /// Worker-thread only -- no lock needed until the datagram boundary
  /// moves it onto the board.
  std::vector<std::unique_ptr<std::vector<flow::FlowRecord>>> pending_;
  /// Must precede runtime_: workers may fire the batch sink (which reads
  /// the observer) as soon as the pool starts.
  flow::Collector::BatchSink observer_;
  TicketBoard board_;
  /// Serializes the spooler: poll() try-locks, flush() blocks.
  std::mutex merge_mu_;
  /// Spool-stage latency histogram + release-watermark lag gauge (null
  /// unless config.metrics was set). Must precede runtime_ only for
  /// symmetry -- they are touched from poll(), never from workers.
  obs::Histogram* spool_hist_ = nullptr;
  obs::Gauge* watermark_lag_gauge_ = nullptr;
  std::atomic<std::uint64_t> released_watermark_{0};
  ShardedCollector runtime_;
  std::atomic<std::uint64_t> ingests_{0};
};

}  // namespace lockdown::runtime
