#include "runtime/sharded_daemon.hpp"

#include <utility>

namespace lockdown::runtime {

namespace {

/// Cap on recycled batch vectors parked on the board; beyond this they
/// free normally (a burst should not pin memory forever).
constexpr std::size_t kMaxFreeBatches = 1024;

ShardedCollectorConfig runtime_config(const ShardedDaemonConfig& config) {
  ShardedCollectorConfig rc;
  rc.protocol = config.protocol;
  rc.shards = config.shards == 0 ? 1 : config.shards;
  rc.ring_capacity = config.ring_capacity;
  rc.wire_lanes = config.wire_lanes == 0 ? 1 : config.wire_lanes;
  rc.anonymizer = config.anonymizer;
  rc.rescale_sampled = config.rescale_sampled;
  rc.metrics = config.metrics;
  return rc;
}

}  // namespace

ShardedCollectorDaemon::ShardedCollectorDaemon(const ShardedDaemonConfig& config,
                                               flow::SliceSink sink)
    : spooler_(config.rotation_seconds, std::move(sink)),
      observer_(config.batch_observer),
      runtime_(runtime_config(config),
               ShardBatchSink([this](std::size_t shard,
                                     std::span<const flow::FlowRecord> batch) {
                 // Monitoring observers run on the worker, before the
                 // spool: counters are commutative sums, so totals match
                 // a single decoder's for any source mix.
                 if (observer_) observer_(batch);
                 // Worker-thread-private until the boundary below.
                 std::vector<flow::FlowRecord>& pending = *pending_[shard];
                 pending.insert(pending.end(), batch.begin(), batch.end());
               }),
               ShardDatagramSink([this](std::size_t shard,
                                        std::uint64_t ticket) {
                 // Datagram boundary: seal this datagram's records
                 // (possibly none) under its arrival ticket, taking a
                 // recycled vector back for the next datagram. The
                 // wire-arrival stamp rides the worker's thread-local
                 // (set around the decode, obs/watermark.hpp) onto the
                 // board so poll() can observe the spool stage.
                 std::vector<flow::FlowRecord>& pending = *pending_[shard];
                 complete(ticket, std::move(pending), &pending,
                          obs::arrival_ns());
               })) {
  const std::size_t shards = config.shards == 0 ? 1 : config.shards;
  pending_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    pending_.push_back(std::make_unique<std::vector<flow::FlowRecord>>());
  }
  if (config.metrics != nullptr) {
    const obs::StageLatency stages = obs::StageLatency::bind(*config.metrics);
    spool_hist_ = stages.spool;
    watermark_lag_gauge_ = &config.metrics->gauge(
        "pipeline_release_watermark_lag_ms", {},
        "Now minus the newest arrival stamp released to the spooler, ms");
  }
}

void ShardedCollectorDaemon::complete(std::uint64_t ticket,
                                      std::vector<flow::FlowRecord>&& records,
                                      std::vector<flow::FlowRecord>* refill,
                                      std::uint64_t arrival_ns) {
  const std::lock_guard<std::mutex> lock(board_.mu);
  if (ticket >= board_.base) {
    const std::size_t idx = static_cast<std::size_t>(ticket - board_.base);
    while (board_.slots.size() <= idx) board_.slots.emplace_back();
    board_.slots[idx].records = std::move(records);
    board_.slots[idx].arrival_ns = arrival_ns;
    board_.slots[idx].ready = true;
  }
  // A shard's pending vector gets a recycled vector back so the next
  // datagram appends into warmed capacity (drops pass no refill target).
  if (refill != nullptr) {
    if (!board_.free.empty()) {
      *refill = std::move(board_.free.back());
      board_.free.pop_back();
    } else {
      refill->clear();  // moved-from: make it definitely empty again
    }
  }
}

void ShardedCollectorDaemon::ingest(std::span<const std::uint8_t> datagram) {
  (void)ingest_lane(0, datagram);
}

std::uint64_t ShardedCollectorDaemon::ingest_lane(
    std::size_t lane, std::span<const std::uint8_t> datagram,
    std::uint64_t arrival_ns) {
  if (arrival_ns == 0) arrival_ns = obs::trace_now_ns();
  const ShardedCollector::IngestResult r =
      runtime_.ingest_ticketed(lane, datagram, arrival_ns);
  // A rejected datagram still owns a ticket: complete it empty so the
  // ordered release never stalls on a gap.
  if (!r.accepted) complete(r.ticket, {}, nullptr, arrival_ns);
  maybe_poll();
  return r.ticket;
}

std::uint64_t ShardedCollectorDaemon::ingest_owned(
    std::size_t lane, std::vector<std::uint8_t>&& buf, std::uint32_t used,
    std::uint64_t arrival_ns) {
  if (arrival_ns == 0) arrival_ns = obs::trace_now_ns();
  const ShardedCollector::IngestResult r =
      runtime_.ingest_owned(lane, std::move(buf), used, arrival_ns);
  if (!r.accepted) complete(r.ticket, {}, nullptr, arrival_ns);
  maybe_poll();
  return r.ticket;
}

void ShardedCollectorDaemon::maybe_poll() {
  // Opportunistic drain keeps the board bounded without a dedicated
  // writer thread; every 64 datagrams is far below the rotation cadence.
  if ((ingests_.fetch_add(1, std::memory_order_relaxed) & 63) == 63) poll();
}

void ShardedCollectorDaemon::poll() {
  // The spooler is serial; whoever holds the merge lock is already
  // releasing the ready prefix, so a contended poll has nothing to add.
  if (!merge_mu_.try_lock()) return;
  const std::lock_guard<std::mutex> merge(merge_mu_, std::adopt_lock);
  poll_locked();
}

void ShardedCollectorDaemon::poll_locked() {
  // Release the ready prefix in ticket order. Batches are moved out under
  // the board lock but appended to the spooler outside it, so workers
  // completing tickets never wait on slice rotation.
  std::vector<std::vector<flow::FlowRecord>> run;
  std::vector<std::uint64_t> arrivals;
  for (;;) {
    run.clear();
    arrivals.clear();
    {
      const std::lock_guard<std::mutex> lock(board_.mu);
      while (!board_.slots.empty() && board_.slots.front().ready) {
        run.push_back(std::move(board_.slots.front().records));
        arrivals.push_back(board_.slots.front().arrival_ns);
        board_.slots.pop_front();
        ++board_.base;
      }
    }
    if (run.empty()) return;
    for (std::size_t i = 0; i < run.size(); ++i) {
      for (const flow::FlowRecord& r : run[i]) spooler_.append(r);
      run[i].clear();
      // Spool stage closes when the datagram's batch reaches the spooler;
      // the released watermark is the running max of released arrival
      // stamps (monotone even though lanes interleave out of stamp order).
      obs::StageLatency::observe_since(spool_hist_, arrivals[i]);
      if (arrivals[i] != 0) {
        std::uint64_t seen =
            released_watermark_.load(std::memory_order_relaxed);
        while (seen < arrivals[i] &&
               !released_watermark_.compare_exchange_weak(
                   seen, arrivals[i], std::memory_order_acq_rel)) {
        }
      }
    }
    if (watermark_lag_gauge_ != nullptr) {
      const std::uint64_t mark =
          released_watermark_.load(std::memory_order_acquire);
      if (mark != 0) {
        const std::uint64_t now = obs::trace_now_ns();
        watermark_lag_gauge_->set(
            now > mark ? static_cast<double>(now - mark) / 1e6 : 0.0);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(board_.mu);
      for (auto& batch : run) {
        if (board_.free.size() >= kMaxFreeBatches) break;
        board_.free.push_back(std::move(batch));
      }
    }
  }
}

void ShardedCollectorDaemon::flush() {
  runtime_.finish();
  {
    const std::lock_guard<std::mutex> merge(merge_mu_);
    poll_locked();
    spooler_.flush();
  }
}

}  // namespace lockdown::runtime
