// Flight recorder for the metrics registry (DESIGN.md §16): a scrape-only
// /metrics shows the current instant, so anything that happens between two
// scrapes -- a traffic dip, a backpressure episode, a detector firing -- is
// invisible. The MetricsRecorder snapshots the whole Registry every
// interval into fixed-size per-series ring buffers, so the process carries
// its own recent history and GET /history can reconstruct the exact series
// an external scraper would have collected, with zero external
// dependencies.
//
// Storage is delta-encoded per sample: counters keep a uint64 delta per
// slot plus a rolling anchor (the absolute value just before the oldest
// retained slot, advanced as the ring overwrites), so reconstruction
// `anchor + prefix-sum(deltas)` is EXACT -- integer sums, no float drift.
// Gauges keep the sampled value. Histograms keep per-bucket deltas (one
// flat stride per slot) plus a sum delta, reconstructed cumulatively the
// same way. A series that disappears from a snapshot (unbind_metrics) is
// retired from the recorder; one that appears mid-run starts recording at
// its first sampled tick.
//
// Ticking: start() runs an owned sampling thread; alternatively the owner
// drives maybe_sample() from an event-loop TickFn (the HttpExposer does
// this when a recorder is bound, so a --listen daemon needs no extra
// thread). sample() forces one tick from any thread; all entry points
// serialize on one mutex (sampling is cold -- a registry snapshot plus a
// few hundred ring stores per tick).
//
// Export: query()/to_json()/to_csv() reconstruct absolute series over the
// trailing `window_sec` seconds, filtered by a `*`/`?` glob over
// "name{labels}" ids. CSV is long-format (`unix_ms,series,type,value`) --
// pandas/Grafana ready. An optional on-disk journal appends every sample
// as CSV and rotates like trace slices (a new `<base>.<unix_ms>.csv` file
// every journal_rotate_samples ticks); a journal that cannot be opened or
// written never stops sampling, and every failure counts in
// recorder_journal_write_errors_total.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace lockdown::obs {

/// `*` matches any run (including empty), `?` any single character;
/// everything else is literal. Matches the whole id.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view id);

struct RecorderConfig {
  /// Sampling period for start()/maybe_sample().
  std::chrono::milliseconds interval{1000};
  /// Samples retained per series (ring capacity; older ticks fall off).
  std::size_t capacity = 512;
  /// Journal base path; empty disables the journal. Files are created as
  /// `<journal_path>.<unix_ms>.csv`.
  std::string journal_path;
  /// Samples per journal file before rotating to a fresh one.
  std::size_t journal_rotate_samples = 3600;
};

/// One reconstructed series, absolute values per retained tick.
struct HistorySeries {
  std::string id;    ///< "name{labels}" ("name" when unlabeled)
  std::string type;  ///< "counter" | "gauge" | "histogram_bucket" | ...
  /// (unix milliseconds, value) per retained sample, oldest first.
  std::vector<std::pair<std::int64_t, double>> points;
};

class MetricsRecorder {
 public:
  /// `registry` must outlive the recorder.
  MetricsRecorder(Registry& registry, RecorderConfig config);
  ~MetricsRecorder();

  MetricsRecorder(const MetricsRecorder&) = delete;
  MetricsRecorder& operator=(const MetricsRecorder&) = delete;

  /// Take one sample now (any thread; serialized internally).
  void sample();

  /// Tick-driven sampling: samples when `interval` has elapsed since the
  /// last tick and returns the time until the next one is due (an
  /// event-loop TickFn can return this as its wait budget).
  std::chrono::milliseconds maybe_sample();

  /// Start the owned sampling thread (idempotent). Use either start() or
  /// external maybe_sample() ticking, not both.
  void start();
  /// Stop and join the owned thread (idempotent; destructor calls it).
  void stop();

  /// Reconstructed absolute series whose id matches `glob`, restricted to
  /// the trailing `window_sec` seconds (0 = everything retained).
  /// Counter/histogram reconstruction is exact (integer prefix sums over
  /// the retained deltas anchored at the pre-ring absolute value).
  [[nodiscard]] std::vector<HistorySeries> query(std::string_view glob,
                                                 std::int64_t window_sec) const;

  /// {"interval_ms":..,"samples":..,"series":[{"id":..,"type":..,
  ///  "points":[[unix_ms,value],..]},..]}
  [[nodiscard]] std::string to_json(std::string_view glob,
                                    std::int64_t window_sec) const;
  /// Long format: header "unix_ms,series,type,value", one row per point.
  [[nodiscard]] std::string to_csv(std::string_view glob,
                                   std::int64_t window_sec) const;

  /// Sampling ticks taken so far.
  [[nodiscard]] std::uint64_t samples() const;
  /// Live (non-retired) series being recorded.
  [[nodiscard]] std::size_t series() const;
  /// Retained samples / capacity in [0,1] -- the ring fill level the
  /// heartbeat line reports.
  [[nodiscard]] double ring_occupancy() const;

  [[nodiscard]] const RecorderConfig& config() const noexcept { return config_; }

 private:
  /// One recorded series. Every sampled quantity is flattened into either
  /// a counter-like series (uint64 delta ring + rolling anchor; counters,
  /// histogram buckets, histogram counts) or a gauge-like series (double
  /// value ring; gauges, histogram sums). The ring retains the trailing
  /// min(ticks, capacity) global ticks.
  struct Series {
    std::string id;
    std::string type;
    /// Absolute value immediately before the oldest retained slot
    /// (counter-like only); reconstruction is anchor + prefix-sum(deltas).
    std::uint64_t anchor = 0;
    std::uint64_t last_absolute = 0;    ///< previous sample, for deltas
    std::vector<std::uint64_t> deltas;  ///< counter-like ring
    std::vector<double> values;         ///< gauge-like ring
    std::uint64_t first_tick = 0;       ///< global tick of the first sample
    std::uint64_t ticks = 0;            ///< samples recorded into this ring
    bool seen = false;                  ///< touched by the current sweep
  };

  void sample_locked();
  void record_counter_like(const std::string& id, std::string_view type,
                           std::uint64_t absolute);
  void record_gauge_like(const std::string& id, std::string_view type,
                         double value);
  Series& series_slot(const std::string& id, std::string_view type,
                      bool counter_like);
  void journal_write_locked(std::int64_t unix_ms);
  [[nodiscard]] double ring_occupancy_locked() const;
  void run();

  Registry& registry_;
  RecorderConfig config_;

  mutable std::mutex mu_;
  std::vector<Series> series_;
  std::vector<std::int64_t> stamps_;  ///< unix_ms ring, shared by all series
  std::uint64_t tick_ = 0;            ///< global sample tick counter
  std::chrono::steady_clock::time_point last_sample_{};
  bool sampled_once_ = false;

  std::FILE* journal_ = nullptr;
  std::size_t journal_samples_ = 0;

  Gauge* occupancy_gauge_ = nullptr;  ///< history_ring_occupancy
  Gauge* series_gauge_ = nullptr;     ///< history_series
  Counter* journal_errors_ = nullptr;  ///< recorder_journal_write_errors_total

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace lockdown::obs
