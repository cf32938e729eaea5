#include "stream/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "obs/trace.hpp"

namespace lockdown::stream {

namespace {

constexpr std::string_view kWindowsMetric = "stream_windows_total";
constexpr std::string_view kLateMetric = "stream_late_records_total";
constexpr std::string_view kOverMetric = "stream_mavg_overlimit_total";
constexpr std::string_view kUnderMetric = "stream_mavg_underlimit_total";
constexpr std::string_view kValueMetric = "stream_window_value";
constexpr std::string_view kMavgMetric = "stream_mavg";
constexpr std::string_view kWatermarkMetric = "stream_watermark_lag_ms";

[[nodiscard]] std::string object_label(std::string_view name) {
  return "object=\"" + std::string(name) + "\"";
}

[[nodiscard]] std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

StreamMonitor::StreamMonitor(filter::MonitorSet& monitors, StreamConfig config)
    : monitors_(monitors), config_(std::move(config)) {
  if (config_.mavg) {
    // A gap shorter than the cap flushes the average with real zeros; make
    // sure the cap clears the averaging depth so an idle object's watch
    // fully decays instead of seeing a clock skip.
    const auto depth = static_cast<std::int64_t>(config_.mavg->k) + 1;
    config_.window.max_gap_windows =
        std::max(config_.window.max_gap_windows, depth);
    MovingAverage validate(*config_.mavg);  // throw before hooks attach
    (void)validate;
  }
  for (const auto& obj : monitors_) {
    objects_.push_back(std::unique_ptr<ObjectStream>(
        new ObjectStream(obj->name(), config_)));
    ObjectStream* os = objects_.back().get();
    obj->set_batch_hook(
        [os](std::span<const flow::FlowRecord> records,
             std::span<const std::uint8_t> hits,
             const filter::FlowColumns& cols) {
          const std::uint64_t late =
              os->agg_.accumulate(records, hits, cols.service.data(),
                                  cols.src_as.data(), cols.dst_as.data());
          if (late != 0 && os->late_counter_ != nullptr) {
            os->late_counter_->add(late);
          }
          // Rotate off the batch clock too: a zero-hit batch still moves
          // this object's windows forward (empty windows feed the mavg).
          if (!records.empty()) os->agg_.advance(records.back().first);
        });
  }
}

StreamMonitor::~StreamMonitor() {
  for (const auto& obj : monitors_) obj->set_batch_hook({});
}

void StreamMonitor::advance(net::Timestamp now) {
  for (const auto& os : objects_) os->agg_.advance(now);
}

void StreamMonitor::flush() {
  for (const auto& os : objects_) os->agg_.flush();
}

std::size_t StreamMonitor::poll() {
  std::size_t drained = 0;
  for (const auto& os : objects_) {
    os->agg_.drain([this, &os, &drained](WindowResult&& r) {
      drain_one(*os, std::move(r), drained);
    });
  }
  return drained;
}

void StreamMonitor::drain_one(ObjectStream& os, WindowResult&& r,
                              std::size_t& drained) {
  ++drained;
  if (os.windows_counter_ != nullptr) os.windows_counter_->add(1);
  if (r.arrival_watermark_ns != 0) {
    // Flow-time-vs-wall-time lag: how long after the newest wire arrival
    // merged into this window the consumer actually drained it. Empty and
    // unstamped windows keep the previous reading.
    const std::uint64_t now = obs::trace_now_ns();
    const double lag_ms =
        now > r.arrival_watermark_ns
            ? static_cast<double>(now - r.arrival_watermark_ns) / 1e6
            : 0.0;
    os.last_watermark_lag_ms_.store(lag_ms, std::memory_order_relaxed);
    if (os.watermark_lag_gauge_ != nullptr) {
      os.watermark_lag_gauge_->set(lag_ms);
    }
  }
  if (os.mavg_) {
    const double value = os.mavg_->value_of(r);
    const std::optional<MavgEvent> event = os.mavg_->observe(r);
    os.last_value_.store(value, std::memory_order_relaxed);
    os.last_mavg_.store(os.mavg_->average(), std::memory_order_relaxed);
    if (os.value_gauge_ != nullptr) os.value_gauge_->set(value);
    if (os.mavg_gauge_ != nullptr) os.mavg_gauge_->set(os.mavg_->average());
    if (event) {
      if (event->over) {
        os.overlimit_events_.fetch_add(1, std::memory_order_relaxed);
        if (os.overlimit_counter_ != nullptr) os.overlimit_counter_->add(1);
      } else {
        os.underlimit_events_.fetch_add(1, std::memory_order_relaxed);
        if (os.underlimit_counter_ != nullptr) os.underlimit_counter_->add(1);
      }
      if (event_sink_) {
        event_sink_(os, *event);
      } else {
        std::clog << format_event(os, *event) << '\n';
      }
    }
  } else {
    const double value = static_cast<double>(r.total.flows);
    os.last_value_.store(value, std::memory_order_relaxed);
    if (os.value_gauge_ != nullptr) os.value_gauge_->set(value);
  }
  if (window_sink_) window_sink_(os, r);
}

void StreamMonitor::set_flow_scale(double scale) noexcept {
  for (const auto& os : objects_) os->agg_.set_flow_scale(scale);
}

void StreamMonitor::bind_metrics(obs::Registry& registry) {
  if (registry_ != nullptr) unbind_metrics();
  registry_ = &registry;
  for (const auto& os : objects_) {
    const std::string label = object_label(os->name_);
    os->windows_counter_ = &registry.counter(
        kWindowsMetric, label, "Completed windows per monitoring object");
    os->windows_counter_->add(os->windows());
    os->late_counter_ = &registry.counter(
        kLateMetric, label,
        "Matched records older than the filling window, folded into it "
        "(late policy)");
    os->late_counter_->add(os->late_records());
    if (os->mavg_) {
      os->overlimit_counter_ = &registry.counter(
          kOverMetric, label, "Moving-average overlimit events");
      os->underlimit_counter_ = &registry.counter(
          kUnderMetric, label, "Moving-average underlimit events");
      os->overlimit_counter_->add(os->overlimit_events());
      os->underlimit_counter_->add(os->underlimit_events());
      os->mavg_gauge_ = &registry.gauge(
          kMavgMetric, label, "Moving average over recent windows");
      os->mavg_gauge_->set(os->last_mavg());
    }
    os->value_gauge_ = &registry.gauge(
        kValueMetric, label, "Last completed window's metric value");
    os->value_gauge_->set(os->last_value());
    os->watermark_lag_gauge_ = &registry.gauge(
        kWatermarkMetric, label,
        "Drain-time lag behind the newest wire arrival in the last window "
        "(ms)");
    os->watermark_lag_gauge_->set(os->last_watermark_lag_ms());
  }
}

void StreamMonitor::unbind_metrics() {
  if (registry_ == nullptr) return;
  for (const auto& os : objects_) {
    const std::string label = object_label(os->name_);
    os->windows_counter_ = nullptr;
    os->late_counter_ = nullptr;
    os->overlimit_counter_ = nullptr;
    os->underlimit_counter_ = nullptr;
    os->value_gauge_ = nullptr;
    os->mavg_gauge_ = nullptr;
    os->watermark_lag_gauge_ = nullptr;
    registry_->remove_counter(kWindowsMetric, label);
    registry_->remove_counter(kLateMetric, label);
    registry_->remove_counter(kOverMetric, label);
    registry_->remove_counter(kUnderMetric, label);
    registry_->remove_gauge(kValueMetric, label);
    registry_->remove_gauge(kMavgMetric, label);
    registry_->remove_gauge(kWatermarkMetric, label);
  }
  registry_ = nullptr;
}

const ObjectStream* StreamMonitor::find(std::string_view name) const {
  for (const auto& os : objects_) {
    if (os->name_ == name) return os.get();
  }
  return nullptr;
}

std::string StreamMonitor::format_event(const ObjectStream& os,
                                        const MavgEvent& e) {
  std::string out = "[stream] ";
  out += e.over ? "overlimit" : "underlimit";
  out += " object=" + os.name();
  out += " window=\"" + e.window_begin.to_string() + "\"";
  out += " seq=" + std::to_string(e.seq);
  out += " value=" + format_double(e.value);
  out += " mavg=" + format_double(e.mavg);
  out += " ratio=" +
         format_double(e.mavg > 0.0 ? e.value / e.mavg
                                    : (e.value > 0.0 ? HUGE_VAL : 1.0));
  return out;
}

}  // namespace lockdown::stream
