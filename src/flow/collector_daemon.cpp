#include "flow/collector_daemon.hpp"

#include <stdexcept>

namespace lockdown::flow {

namespace {

/// Single-writer increment: a relaxed load + store, never a locked RMW.
void bump(std::atomic<std::size_t>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

}  // namespace

SliceSpooler::SliceSpooler(std::int64_t rotation_seconds, SliceSink sink)
    : rotation_seconds_(rotation_seconds), sink_(std::move(sink)) {
  if (rotation_seconds_ <= 0) {
    throw std::invalid_argument("SliceSpooler: non-positive rotation window");
  }
}

void SliceSpooler::append(const FlowRecord& record) {
  // Window anchored on aligned flow time, like nfcapd's file naming.
  const std::int64_t window = rotation_seconds_;
  const net::Timestamp aligned(record.first.seconds() -
                               (((record.first.seconds() % window) + window) %
                                window));
  if (!window_begin_) {
    window_begin_ = aligned;
  } else if (aligned.seconds() >= window_begin_->seconds() + window) {
    rotate(aligned);
  }
  // Late records (older than the current window) are kept in the current
  // slice rather than reopening a shipped one -- same policy as nfcapd.
  writer_.append(record);
  bump(spooled_);
}

void SliceSpooler::emit() {
  TraceSlice slice;
  slice.begin = *window_begin_;
  slice.records = writer_.records_written();
  slice.image = writer_.finish();
  bump(slices_);
  sink_(std::move(slice));
}

void SliceSpooler::rotate(net::Timestamp new_window_begin) {
  if (writer_.records_written() > 0) emit();
  window_begin_ = new_window_begin;
}

void SliceSpooler::flush() {
  if (writer_.records_written() > 0 && window_begin_) emit();
  window_begin_.reset();
}

}  // namespace lockdown::flow
