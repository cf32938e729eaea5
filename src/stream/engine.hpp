// StreamMonitor: attaches one double-banked WindowAggregator (and an
// optional MovingAverage threshold watch) to every object of a
// filter::MonitorSet via the per-object batch hooks, turning the monitor
// layer's counters into an always-on windowed stream (DESIGN.md §13).
//
// Data path: route_batch -> per-object hook -> WindowAggregator::accumulate
// (hit mask + shared FlowColumns) on the routing thread; the hook also
// advances the object's window clock to the batch's last record time, so
// an object whose filter stops matching still rotates and emits the empty
// windows its moving average needs (an object that never matched has no
// window anchor and stays idle). poll() -- called from the owner thread
// (live_collector's ship loop) -- drains completed windows, feeds the
// moving average, fires overlimit/underlimit counters + log lines, and
// hands each window to an optional sink (CSV export).
//
// Thread model: construction/destruction and set_* are wiring-time (must
// not race route_batch -- same rule as MonitorSet::bind_metrics).
// advance() is thread-safe; poll()/flush() are single-consumer. The
// MonitorSet must outlive the StreamMonitor (the destructor detaches the
// hooks it installed). Objects added to the set *after* construction are
// not streamed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "filter/monitor.hpp"
#include "obs/metrics.hpp"
#include "stream/mavg.hpp"
#include "stream/window.hpp"

namespace lockdown::stream {

struct StreamConfig {
  WindowAggregator::Config window;  ///< shared by every object
  std::optional<MavgConfig> mavg;   ///< threshold watch (nullopt = none)
};

/// Per-object streaming state. Handed out by StreamMonitor; accessors are
/// safe from any thread (atomics), the aggregator reference follows the
/// aggregator's own thread rules.
class ObjectStream {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const WindowAggregator& aggregator() const noexcept {
    return agg_;
  }
  [[nodiscard]] bool has_mavg() const noexcept { return mavg_.has_value(); }
  [[nodiscard]] std::uint64_t windows() const noexcept {
    return agg_.windows_completed();
  }
  /// Matched records that arrived after their window closed and were
  /// folded into the filling one; `stream_late_records_total` mirrors it.
  [[nodiscard]] std::uint64_t late_records() const noexcept {
    return agg_.late_records();
  }
  [[nodiscard]] std::uint64_t overlimit_events() const noexcept {
    return overlimit_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t underlimit_events() const noexcept {
    return underlimit_events_.load(std::memory_order_relaxed);
  }
  /// Metric value of the last drained window / the moving average after
  /// it (0 until the first drain).
  [[nodiscard]] double last_value() const noexcept {
    return last_value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double last_mavg() const noexcept {
    return last_mavg_.load(std::memory_order_relaxed);
  }
  /// Flow-time-vs-wall-time lag of the last drained non-empty window:
  /// drain time minus the newest wire-arrival stamp merged into it, in
  /// ms (0 until a stamped window drained). The `stream_watermark_lag_ms`
  /// gauge mirrors this.
  [[nodiscard]] double last_watermark_lag_ms() const noexcept {
    return last_watermark_lag_ms_.load(std::memory_order_relaxed);
  }

 private:
  friend class StreamMonitor;
  ObjectStream(std::string name, const StreamConfig& config)
      : name_(std::move(name)), agg_(config.window) {
    if (config.mavg) mavg_.emplace(*config.mavg);
  }

  std::string name_;
  WindowAggregator agg_;
  std::optional<MovingAverage> mavg_;  ///< consumer-thread state (poll)
  std::atomic<std::uint64_t> overlimit_events_{0};
  std::atomic<std::uint64_t> underlimit_events_{0};
  std::atomic<double> last_value_{0.0};
  std::atomic<double> last_mavg_{0.0};
  std::atomic<double> last_watermark_lag_ms_{0.0};
  // Bound /metrics mirrors (null when not bound).
  obs::Counter* windows_counter_ = nullptr;
  obs::Counter* late_counter_ = nullptr;
  obs::Counter* overlimit_counter_ = nullptr;
  obs::Counter* underlimit_counter_ = nullptr;
  obs::Gauge* value_gauge_ = nullptr;
  obs::Gauge* mavg_gauge_ = nullptr;
  obs::Gauge* watermark_lag_gauge_ = nullptr;
};

class StreamMonitor {
 public:
  using WindowSink =
      std::function<void(const ObjectStream&, const WindowResult&)>;
  using EventSink = std::function<void(const ObjectStream&, const MavgEvent&)>;

  /// Attaches a window hook to every object currently in `monitors`.
  /// If the engine raises window.max_gap_windows below the moving-average
  /// depth it is lifted to K+1 so a long gap still flushes the average
  /// with zeros. Throws std::invalid_argument on bad configs.
  StreamMonitor(filter::MonitorSet& monitors, StreamConfig config);
  ~StreamMonitor();

  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Receives every completed window, in order per object (wiring-time).
  void set_window_sink(WindowSink sink) { window_sink_ = std::move(sink); }
  /// Receives threshold events; replaces the default stderr log line
  /// (wiring-time). Counters fire either way.
  void set_event_sink(EventSink sink) { event_sink_ = std::move(sink); }

  /// Rotate every object's window clock up to `now`. Thread-safe.
  void advance(net::Timestamp now);
  /// Close all partial windows (end of stream). Consumer thread.
  void flush();
  /// Drain completed windows across all objects: bump window counters,
  /// feed moving averages, fire events, call the window sink. Returns the
  /// number of windows drained. Consumer thread.
  std::size_t poll();

  /// Wiring-time; forwards to every aggregator (same contract as
  /// MonitorSet::set_flow_scale).
  void set_flow_scale(double scale) noexcept;

  /// stream_windows_total / stream_mavg_{over,under}limit_total counters
  /// and stream_window_value / stream_mavg gauges per object.
  void bind_metrics(obs::Registry& registry);
  void unbind_metrics();

  [[nodiscard]] const StreamConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] bool empty() const noexcept { return objects_.empty(); }
  [[nodiscard]] const ObjectStream* find(std::string_view name) const;
  [[nodiscard]] auto begin() const noexcept { return objects_.begin(); }
  [[nodiscard]] auto end() const noexcept { return objects_.end(); }

  /// The default event log line:
  /// "[stream] overlimit object=vpn window=\"2020-03-16 00:00:00\" seq=12
  ///  value=123 mavg=80.5 ratio=1.53".
  [[nodiscard]] static std::string format_event(const ObjectStream& os,
                                                const MavgEvent& e);

 private:
  void drain_one(ObjectStream& os, WindowResult&& r, std::size_t& drained);

  filter::MonitorSet& monitors_;
  StreamConfig config_;
  // unique_ptr: atomics are not movable and hooks capture stable pointers.
  std::vector<std::unique_ptr<ObjectStream>> objects_;
  obs::Registry* registry_ = nullptr;
  WindowSink window_sink_;
  EventSink event_sink_;
};

}  // namespace lockdown::stream
