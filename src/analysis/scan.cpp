#include "analysis/scan.hpp"

#include "obs/trace.hpp"

namespace lockdown::analysis {

ScanPool::ScanPool(unsigned threads, BatchFn fn, const filter::AsnTrie* trie,
                   std::size_t chunk_records)
    : lanes_(threads == 0 ? 1u : threads),
      chunk_records_(chunk_records == 0 ? kDefaultChunkRecords : chunk_records),
      fn_(std::move(fn)),
      trie_(trie) {
  if (lanes_ <= 1) return;  // inline mode: no threads, no queues
  queues_.reserve(lanes_);
  for (unsigned i = 0; i < lanes_; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(lanes_);
  for (unsigned i = 0; i < lanes_; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
  pending_.reserve(chunk_records_);
}

ScanPool::~ScanPool() { finish(); }

void ScanPool::feed(std::span<const flow::FlowRecord> records) {
  if (lanes_ <= 1) {
    // Inline: no copy, no chunking -- per-record results do not depend on
    // batch boundaries, so the caller's span is processed as one batch.
    if (records.empty()) return;
    inline_cols_.build(records, trie_);
    fn_(0, records, inline_cols_);
    return;
  }
  while (!records.empty()) {
    const std::size_t room = chunk_records_ - pending_.size();
    const std::size_t take = records.size() < room ? records.size() : room;
    pending_.insert(pending_.end(), records.begin(),
                    records.begin() + static_cast<std::ptrdiff_t>(take));
    records = records.subspan(take);
    if (pending_.size() == chunk_records_) {
      std::vector<flow::FlowRecord> chunk = take_buffer();
      chunk.swap(pending_);
      dispatch(std::move(chunk));
    }
  }
}

void ScanPool::finish() {
  if (finished_) return;
  finished_ = true;
  if (lanes_ <= 1) return;
  if (!pending_.empty()) {
    dispatch(std::move(pending_));
    pending_.clear();
  }
  for (auto& q : queues_) {
    std::lock_guard lock(q->mu);
    q->done = true;
    q->not_empty.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void ScanPool::dispatch(std::vector<flow::FlowRecord>&& chunk) {
  WorkerQueue& q = *queues_[next_worker_];
  next_worker_ = (next_worker_ + 1) % lanes_;
  std::unique_lock lock(q.mu);
  q.not_full.wait(lock, [&q] { return q.chunks.size() < kMaxQueuedChunks; });
  q.chunks.push_back(std::move(chunk));
  q.not_empty.notify_one();
}

void ScanPool::worker_main(unsigned index) {
  filter::FlowColumns cols;  // thread-local: rebuilt per chunk, reused storage
  WorkerQueue& q = *queues_[index];
  for (;;) {
    std::vector<flow::FlowRecord> chunk;
    {
      std::unique_lock lock(q.mu);
      q.not_empty.wait(lock, [&q] { return !q.chunks.empty() || q.done; });
      if (q.chunks.empty()) return;  // done and drained
      chunk = std::move(q.chunks.front());
      q.chunks.pop_front();
      q.not_full.notify_one();
    }
    {
      TRACE_SPAN_ARG("analysis", "scan.chunk", chunk.size());
      cols.build(chunk, trie_);
      fn_(index, chunk, cols);
    }
    recycle_buffer(std::move(chunk));
  }
}

std::vector<flow::FlowRecord> ScanPool::take_buffer() {
  {
    std::lock_guard lock(free_mu_);
    if (!free_buffers_.empty()) {
      std::vector<flow::FlowRecord> buf = std::move(free_buffers_.back());
      free_buffers_.pop_back();
      return buf;
    }
  }
  std::vector<flow::FlowRecord> buf;
  buf.reserve(chunk_records_);
  return buf;
}

void ScanPool::recycle_buffer(std::vector<flow::FlowRecord>&& buf) {
  buf.clear();
  std::lock_guard lock(free_mu_);
  if (free_buffers_.size() < lanes_ * kMaxQueuedChunks) {
    free_buffers_.push_back(std::move(buf));
  }
}

flow::CollectorStats synthesize_through_wire(
    const synth::VantagePoint& vp, const synth::AsRegistry& registry,
    net::TimeRange range, const synth::SynthesisConfig& config,
    flow::Collector::BatchSink sink, const flow::Anonymizer* anonymizer) {
  const synth::FlowSynthesizer synth(vp.model, registry, config);
  flow::ExportPump pump(vp.protocol, std::move(sink), anonymizer);
  synth.synthesize(range, pump.as_sink());
  pump.flush();
  return pump.stats();
}

}  // namespace lockdown::analysis
