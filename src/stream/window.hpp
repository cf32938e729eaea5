// Streaming fixed-window aggregation with double-banked hash state
// (xenoeye's fwm_data two-bank design, DESIGN.md §13). One aggregator
// serves one monitoring object: ingest threads accumulate matched records
// into the ACTIVE bank while window rotation moves the other, already
// retired bank into a completed-window queue -- so route_batch never waits
// on a flush, and a flush only ever waits for the handful of in-flight
// batch merges that raced the bank swap.
//
// Windows are anchored on flow time (like SliceSpooler's nfcapd policy),
// not the wall clock, so replayed streams rotate identically to live
// capture; a live daemon may additionally drive rotation from a ticker via
// advance(). Records older than the current window are counted into the
// current window (late policy, same as the slice spooler) and tallied in
// late_records(). Gaps emit empty window results -- the moving-average
// layer needs the zeros -- capped at Config::max_gap_windows per jump,
// after which the window clock skips ahead (seq records the skip).
//
// Thread model: accumulate()/advance() may be called concurrently from any
// number of threads (shard workers). drain() and flush() are owner-thread
// operations (serialized against each other by the caller); they may run
// concurrently with accumulate(). Exactly-once: every window is emitted by
// exactly one rotation, serialized by the rotation mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"

namespace lockdown::stream {

/// Fields a window key tuple can be built from. AS fields use the resolved
/// endpoint columns when the caller provides them (the monitoring layer's
/// FlowColumns) and fall back to the exporter annotation otherwise.
enum class KeyField : std::uint8_t {
  kSrcAs,
  kDstAs,
  kService,  ///< (proto << 16) | service port, FlowRecord::service_port()
  kProto,
  kSrcPort,
  kDstPort,
};

[[nodiscard]] constexpr const char* to_string(KeyField f) noexcept {
  switch (f) {
    case KeyField::kSrcAs: return "src_as";
    case KeyField::kDstAs: return "dst_as";
    case KeyField::kService: return "service";
    case KeyField::kProto: return "proto";
    case KeyField::kSrcPort: return "src_port";
    case KeyField::kDstPort: return "dst_port";
  }
  return "?";
}

inline constexpr std::size_t kMaxKeyFields = 4;

using KeyTuple = std::vector<KeyField>;

/// "dst_as" -> KeyField::kDstAs; nullopt for unknown names.
[[nodiscard]] std::optional<KeyField> parse_key_field(std::string_view name);

/// Comma-separated tuple ("dst_as,service"); empty input -> empty tuple
/// (scalar totals). nullopt on unknown fields or more than kMaxKeyFields.
[[nodiscard]] std::optional<KeyTuple> parse_key_tuple(std::string_view csv);

/// One aggregation key: the tuple's field values, in tuple order (unused
/// slots stay zero, so equality/hashing can cover the whole array).
struct WindowKey {
  std::array<std::uint32_t, kMaxKeyFields> v{};

  friend constexpr bool operator==(const WindowKey&, const WindowKey&) = default;
  friend constexpr auto operator<=>(const WindowKey&, const WindowKey&) = default;
};

struct WindowKeyHash {
  [[nodiscard]] std::size_t operator()(const WindowKey& k) const noexcept;
};

/// "dst_as=AS3320,service=TCP/443" -- the CSV spelling of one key under a
/// given tuple. Scalar (empty tuple) spells as "*".
[[nodiscard]] std::string key_to_string(const KeyTuple& tuple,
                                        const WindowKey& key);

struct WindowAcc {
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;

  WindowAcc& operator+=(const WindowAcc& o) noexcept {
    flows += o.flows;
    bytes += o.bytes;
    packets += o.packets;
    return *this;
  }
  friend constexpr bool operator==(const WindowAcc&, const WindowAcc&) = default;
};

/// One completed window. `seq` numbers windows from 0 in window-length
/// steps since the first record; a capped gap skips seq values, so
/// consumers can tell "empty window emitted" from "clock skipped ahead".
struct WindowResult {
  net::Timestamp begin;
  std::int64_t seq = 0;
  WindowAcc total;
  /// Newest wire-arrival stamp (trace_now_ns clock, obs/watermark.hpp)
  /// among the batches merged into this window; 0 when nothing stamped
  /// reached it (empty windows, pre-watermark callers). Retirement time
  /// minus this is the window's flow-time-vs-wall-time lag.
  std::uint64_t arrival_watermark_ns = 0;
  /// Per-key rows (unsorted -- bank iteration order; sort for stable
  /// output). Empty in scalar mode and for empty windows.
  std::vector<std::pair<WindowKey, WindowAcc>> rows;

  [[nodiscard]] bool empty() const noexcept {
    return total == WindowAcc{} && rows.empty();
  }
};

class WindowAggregator {
 public:
  struct Config {
    std::int64_t window_seconds = 60;
    KeyTuple key;  ///< empty = scalar totals only
    /// Rescale factor for matched-flow counts under 1-in-N flow sampling
    /// (same contract as MonitorSet::set_flow_scale: bytes/packets arrive
    /// already rescaled by the sampler stages, flow counts do not).
    double flow_scale = 1.0;
    /// Most empty windows emitted per time gap before the window clock
    /// skips ahead. Keep >= the moving-average depth so a long gap still
    /// fully flushes the average with zeros.
    std::int64_t max_gap_windows = 16;
  };

  /// Throws std::invalid_argument on a non-positive window or an
  /// over-long key tuple.
  explicit WindowAggregator(Config config);

  /// Accumulate the hit-marked subset of `records` ( `hits` empty = all).
  /// The optional columns carry per-record derived values aligned with
  /// `records` (the monitoring layer's FlowColumns arrays); null columns
  /// fall back to record fields (AS fields then only see exporter
  /// annotations). Rotates when record time crosses the window boundary.
  /// Returns how many of the accumulated records were late (older than the
  /// filling window, so folded into it). Thread-safe.
  std::uint64_t accumulate(std::span<const flow::FlowRecord> records,
                           std::span<const std::uint8_t> hits,
                           const std::uint32_t* service_col = nullptr,
                           const std::uint32_t* src_as_col = nullptr,
                           const std::uint32_t* dst_as_col = nullptr);

  /// Rotate every window that ends at or before `now` into the completed
  /// queue (live ticker / test hook). No-op before the first record.
  /// Thread-safe.
  void advance(net::Timestamp now);

  /// Close the current partial window (end of stream / shutdown) and
  /// retire it to the completed queue. Later records start a new window.
  void flush();

  /// Pop completed windows, oldest first, into `sink`. Returns how many
  /// were delivered. Single consumer.
  std::size_t drain(const std::function<void(WindowResult&&)>& sink);

  /// Wiring-time only (same contract as MonitorSet::set_flow_scale).
  void set_flow_scale(double scale) noexcept { flow_scale_ = scale; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t windows_completed() const noexcept {
    return windows_completed_.load(std::memory_order_relaxed);
  }
  /// Records folded into a later window than their own (late policy).
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return late_records_.load(std::memory_order_relaxed);
  }
  /// Completed windows not yet drained.
  [[nodiscard]] std::size_t pending() const;
  /// Begin of the currently filling window (nullopt before any record).
  [[nodiscard]] std::optional<net::Timestamp> current_window_begin() const;

 private:
  struct Bank {
    std::mutex mu;
    WindowAcc total;
    std::uint64_t arrival_watermark_ns = 0;  ///< max over merged segments
    std::unordered_map<WindowKey, WindowAcc, WindowKeyHash> map;
  };

  /// Per-batch scratch: one contiguous run of records that all precede the
  /// next rotation point, aggregated locally before one locked merge.
  struct Segment {
    WindowAcc total;
    std::uint64_t arrival_ns = 0;  ///< the batch's wire-arrival stamp
    std::unordered_map<WindowKey, WindowAcc, WindowKeyHash> map;
    void clear() noexcept {
      total = WindowAcc{};
      arrival_ns = 0;
      map.clear();
    }
    [[nodiscard]] bool empty() const noexcept {
      return total == WindowAcc{} && map.empty();
    }
  };

  static constexpr std::int64_t kUnset = INT64_MIN;

  [[nodiscard]] std::int64_t align(std::int64_t t) const noexcept {
    const std::int64_t w = config_.window_seconds;
    return t - (((t % w) + w) % w);
  }

  /// Merge `seg` into the active bank (retrying across a racing swap).
  void merge(const Segment& seg);
  /// Rotate until the window containing `target_seconds` is current.
  void rotate_to(std::int64_t target_seconds);
  /// rot_mu_ held: swap banks, move the retired bank into `done_` as the
  /// window beginning at `begin_seconds`.
  void retire_active_locked(std::int64_t begin_seconds, std::int64_t seq);

  Config config_;
  double flow_scale_ = 1.0;

  std::atomic<std::int64_t> window_begin_{kUnset};
  std::atomic<std::int64_t> window_seq_{0};
  std::atomic<int> active_{0};
  std::array<Bank, 2> banks_;

  std::mutex rot_mu_;  ///< serializes rotation + flush (exactly-once)

  mutable std::mutex done_mu_;
  std::deque<WindowResult> done_;
  std::atomic<std::uint64_t> windows_completed_{0};
  std::atomic<std::uint64_t> late_records_{0};
};

}  // namespace lockdown::stream
