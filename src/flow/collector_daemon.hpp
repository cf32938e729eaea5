// Slice rotation for the collector (nfcapd-style): decoded records in,
// completed trace slices out, so analysis jobs can pick up finished
// windows while capture continues. runtime::ShardedCollectorDaemon owns
// the deployed instance and appends on its wire lanes; offline replays
// drive one directly behind a flow::Collector.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "flow/trace_file.hpp"

namespace lockdown::flow {

/// A completed trace slice.
struct TraceSlice {
  net::Timestamp begin;  ///< start of the slice window (aligned)
  std::vector<std::uint8_t> image;
  std::size_t records = 0;
};

using SliceSink = std::function<void(TraceSlice&&)>;

/// The rotation engine: rotate when the current slice covers
/// `rotation_seconds` of flow time (nfcapd's default is 300 s). Rotation is
/// driven by record timestamps, not the wall clock, so replays rotate
/// identically to live capture. Single writer: append() and flush() must be
/// serialized by the caller; the two counters may be read from any thread.
class SliceSpooler {
 public:
  /// Throws std::invalid_argument on a non-positive rotation window.
  SliceSpooler(std::int64_t rotation_seconds, SliceSink sink);

  /// Spool one decoded record, rotating when its aligned window advances.
  void append(const FlowRecord& record);

  /// Flush the current partial slice (end of capture / shutdown).
  void flush();

  [[nodiscard]] std::size_t slices_emitted() const noexcept {
    return slices_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t records_spooled() const noexcept {
    return spooled_.load(std::memory_order_relaxed);
  }

 private:
  void rotate(net::Timestamp new_window_begin);
  void emit();

  std::int64_t rotation_seconds_;
  SliceSink sink_;
  TraceWriter writer_;
  std::optional<net::Timestamp> window_begin_;
  // Single-writer counters: the writer bumps them with a relaxed load +
  // store (no locked read-modify-write on the spool path), so readers on
  // other threads see a recent value without a data race.
  std::atomic<std::size_t> slices_{0};
  std::atomic<std::size_t> spooled_{0};
};

}  // namespace lockdown::flow
