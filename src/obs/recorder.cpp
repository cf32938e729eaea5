#include "obs/recorder.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace lockdown::obs {

namespace {

std::int64_t unix_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Matches the text-exposition formatting (metrics.cpp) so histogram bucket
// ids carry the same le="..." strings a /metrics scrape shows.
std::string format_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Series values keep full precision: integral values print without a
// decimal point (counter reconstruction stays textually exact), the rest
// round-trip through %.17g.
std::string format_point(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string series_id(const std::string& name, const std::string& labels,
                      const std::string& extra_label = {}) {
  std::string id = name;
  if (!labels.empty() || !extra_label.empty()) {
    id += '{';
    id += labels;
    if (!labels.empty() && !extra_label.empty()) id += ',';
    id += extra_label;
    id += '}';
  }
  return id;
}

void json_escape_into(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
}

// Ids contain commas and double quotes (label lists, le="...") -- always
// quote the CSV field and double interior quotes (RFC 4180).
void csv_quote_into(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    out += c;
    if (c == '"') out += '"';
  }
  out += '"';
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view id) {
  // Iterative two-pointer match with single-star backtracking: on
  // mismatch, retry from the last `*` consuming one more character.
  std::size_t p = 0, s = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (s < id.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == id[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

MetricsRecorder::MetricsRecorder(Registry& registry, RecorderConfig config)
    : registry_(registry), config_(std::move(config)) {
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.interval.count() <= 0) config_.interval = std::chrono::milliseconds(1);
  stamps_.assign(config_.capacity, 0);
  occupancy_gauge_ = &registry_.gauge(
      "history_ring_occupancy", {},
      "Recorder ring fill level, retained samples / capacity");
  series_gauge_ = &registry_.gauge("history_series", {},
                                   "Series tracked by the metrics recorder");
  journal_errors_ = &registry_.counter(
      "recorder_journal_write_errors_total", {},
      "Failed journal opens, writes and flushes; sampling continues and "
      "the affected rows are lost");
}

MetricsRecorder::~MetricsRecorder() {
  stop();
  const std::lock_guard<std::mutex> lock(mu_);
  if (journal_ != nullptr) {
    std::fclose(journal_);
    journal_ = nullptr;
  }
}

MetricsRecorder::Series& MetricsRecorder::series_slot(const std::string& id,
                                                      std::string_view type,
                                                      bool counter_like) {
  auto it = std::lower_bound(
      series_.begin(), series_.end(), id,
      [](const Series& s, const std::string& key) { return s.id < key; });
  if (it != series_.end() && it->id == id) return *it;
  Series fresh;
  fresh.id = id;
  fresh.type = std::string(type);
  fresh.first_tick = tick_;
  if (counter_like) {
    fresh.deltas.assign(config_.capacity, 0);
  } else {
    fresh.values.assign(config_.capacity, 0.0);
  }
  return *series_.insert(it, std::move(fresh));
}

void MetricsRecorder::record_counter_like(const std::string& id,
                                          std::string_view type,
                                          std::uint64_t absolute) {
  Series& s = series_slot(id, type, /*counter_like=*/true);
  const std::size_t slot = static_cast<std::size_t>(tick_ % config_.capacity);
  if (s.ticks == 0) {
    // First sample: the anchor is the absolute value and the slot holds a
    // zero delta, so reconstruction at this tick is exact immediately.
    s.anchor = absolute;
    s.deltas[slot] = 0;
  } else {
    if (s.ticks >= config_.capacity) s.anchor += s.deltas[slot];
    // uint64 wraparound keeps anchor + prefix-sum == absolute (mod 2^64)
    // even if a "monotonic" input ever steps backwards.
    s.deltas[slot] = absolute - s.last_absolute;
  }
  s.last_absolute = absolute;
  ++s.ticks;
  s.seen = true;
}

void MetricsRecorder::record_gauge_like(const std::string& id,
                                        std::string_view type, double value) {
  Series& s = series_slot(id, type, /*counter_like=*/false);
  s.values[static_cast<std::size_t>(tick_ % config_.capacity)] = value;
  ++s.ticks;
  s.seen = true;
}

void MetricsRecorder::sample_locked() {
  const RegistrySnapshot snap = registry_.snapshot();
  const std::int64_t unix_ms = unix_now_ms();
  stamps_[static_cast<std::size_t>(tick_ % config_.capacity)] = unix_ms;

  for (Series& s : series_) s.seen = false;
  for (const CounterSnapshot& c : snap.counters) {
    record_counter_like(series_id(c.name, c.labels), "counter", c.value);
  }
  for (const GaugeSnapshot& g : snap.gauges) {
    record_gauge_like(series_id(g.name, g.labels), "gauge", g.value);
  }
  for (const HistogramSnapshot& h : snap.histograms) {
    for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
      const std::string le =
          i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf";
      record_counter_like(
          series_id(h.name + "_bucket", h.labels, "le=\"" + le + "\""),
          "histogram_bucket", h.cumulative[i]);
    }
    record_counter_like(series_id(h.name + "_count", h.labels),
                        "histogram_count", h.count);
    record_gauge_like(series_id(h.name + "_sum", h.labels), "histogram_sum",
                      h.sum);
  }
  // A series missing from this snapshot was unregistered
  // (remove_counter/remove_gauge); retire it so a later re-registration
  // starts a fresh ring instead of inheriting stale deltas.
  std::erase_if(series_, [](const Series& s) { return !s.seen; });

  ++tick_;
  if (!config_.journal_path.empty()) journal_write_locked(unix_ms);
  if (occupancy_gauge_ != nullptr) occupancy_gauge_->set(ring_occupancy_locked());
  if (series_gauge_ != nullptr) {
    series_gauge_->set(static_cast<double>(series_.size()));
  }
}

double MetricsRecorder::ring_occupancy_locked() const {
  return static_cast<double>(std::min<std::uint64_t>(tick_, config_.capacity)) /
         static_cast<double>(config_.capacity);
}

void MetricsRecorder::journal_write_locked(std::int64_t unix_ms) {
  // Disk trouble must not stop sampling: each failed open, write, flush or
  // close is counted, and the sample goes on without its journal rows.
  if (journal_ == nullptr) {
    const std::string path =
        config_.journal_path + "." + std::to_string(unix_ms) + ".csv";
    journal_ = std::fopen(path.c_str(), "w");
    if (journal_ == nullptr) {
      journal_errors_->add();
      return;
    }
    if (std::fputs("unix_ms,series,type,value\n", journal_) == EOF) {
      journal_errors_->add();
    }
    journal_samples_ = 0;
  }
  std::string row;
  for (const Series& s : series_) {
    row.clear();
    row += std::to_string(unix_ms);
    row += ',';
    csv_quote_into(row, s.id);
    row += ',';
    row += s.type;
    row += ',';
    const double value =
        s.values.empty()
            ? static_cast<double>(s.last_absolute)
            : s.values[static_cast<std::size_t>((tick_ - 1) % config_.capacity)];
    row += format_point(value);
    row += '\n';
    if (std::fputs(row.c_str(), journal_) == EOF) journal_errors_->add();
  }
  if (std::fflush(journal_) != 0) journal_errors_->add();
  if (++journal_samples_ >= config_.journal_rotate_samples) {
    if (std::fclose(journal_) != 0) journal_errors_->add();
    journal_ = nullptr;
  }
}

void MetricsRecorder::sample() {
  const std::lock_guard<std::mutex> lock(mu_);
  sample_locked();
  last_sample_ = std::chrono::steady_clock::now();
  sampled_once_ = true;
}

std::chrono::milliseconds MetricsRecorder::maybe_sample() {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  if (!sampled_once_ || now - last_sample_ >= config_.interval) {
    sample_locked();
    last_sample_ = now;
    sampled_once_ = true;
    return config_.interval;
  }
  const auto due = std::chrono::duration_cast<std::chrono::milliseconds>(
      config_.interval - (now - last_sample_));
  return std::max(due, std::chrono::milliseconds(1));
}

void MetricsRecorder::start() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] { run(); });
}

void MetricsRecorder::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  const std::lock_guard<std::mutex> lock(stop_mu_);
  started_ = false;
}

void MetricsRecorder::run() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stopping_) {
    lock.unlock();
    sample();
    lock.lock();
    stop_cv_.wait_for(lock, config_.interval, [this] { return stopping_; });
  }
}

std::vector<HistorySeries> MetricsRecorder::query(std::string_view glob,
                                                  std::int64_t window_sec) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistorySeries> out;
  if (tick_ == 0) return out;
  const std::size_t n = config_.capacity;
  const std::int64_t newest =
      stamps_[static_cast<std::size_t>((tick_ - 1) % n)];
  const std::int64_t cutoff =
      window_sec > 0 ? newest - window_sec * 1000 : INT64_MIN;
  for (const Series& s : series_) {
    if (!glob.empty() && glob != "*" && !glob_match(glob, s.id)) continue;
    HistorySeries hs;
    hs.id = s.id;
    hs.type = s.type;
    const std::uint64_t retained = std::min<std::uint64_t>(s.ticks, n);
    const std::uint64_t begin_t = s.first_tick + (s.ticks - retained);
    std::uint64_t running = s.anchor;
    hs.points.reserve(static_cast<std::size_t>(retained));
    for (std::uint64_t t = begin_t; t < s.first_tick + s.ticks; ++t) {
      const std::size_t slot = static_cast<std::size_t>(t % n);
      double value;
      if (s.values.empty()) {
        running += s.deltas[slot];
        value = static_cast<double>(running);
      } else {
        value = s.values[slot];
      }
      const std::int64_t stamp = stamps_[slot];
      if (stamp < cutoff) continue;
      hs.points.emplace_back(stamp, value);
    }
    if (!hs.points.empty()) out.push_back(std::move(hs));
  }
  return out;
}

std::string MetricsRecorder::to_json(std::string_view glob,
                                     std::int64_t window_sec) const {
  const std::vector<HistorySeries> matched = query(glob, window_sec);
  std::string out = "{\"interval_ms\":";
  out += std::to_string(config_.interval.count());
  out += ",\"samples\":";
  out += std::to_string(samples());
  out += ",\"series\":[";
  bool first = true;
  for (const HistorySeries& s : matched) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":\"";
    json_escape_into(out, s.id);
    out += "\",\"type\":\"";
    json_escape_into(out, s.type);
    out += "\",\"points\":[";
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      if (i != 0) out += ',';
      out += '[';
      out += std::to_string(s.points[i].first);
      out += ',';
      out += format_point(s.points[i].second);
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string MetricsRecorder::to_csv(std::string_view glob,
                                    std::int64_t window_sec) const {
  const std::vector<HistorySeries> matched = query(glob, window_sec);
  std::string out = "unix_ms,series,type,value\n";
  for (const HistorySeries& s : matched) {
    for (const auto& [stamp, value] : s.points) {
      out += std::to_string(stamp);
      out += ',';
      csv_quote_into(out, s.id);
      out += ',';
      out += s.type;
      out += ',';
      out += format_point(value);
      out += '\n';
    }
  }
  return out;
}

std::uint64_t MetricsRecorder::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tick_;
}

std::size_t MetricsRecorder::series() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

double MetricsRecorder::ring_occupancy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ring_occupancy_locked();
}

}  // namespace lockdown::obs
