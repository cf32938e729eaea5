// Measurement plumbing shared by every workload: sample statistics,
// per-thread scheduler accounting read from /proc, the in-memory span log
// of traced runs, the host stamp, and the result printer.
//
// Everything here observes the system from outside: timings wrap calls
// into public functions, and thread CPU comes from
// /proc/self/task/<tid>/schedstat for threads found by diffing
// /proc/self/task around a component's construction.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return lockdown::obs::trace_now_ns();
}

/// A bag of measurements with order statistics.
class Samples {
 public:
  /// Non-finite values (a ratio over nothing) are not samples.
  void add(double v) {
    if (std::isfinite(v)) v_.push_back(v);
  }
  [[nodiscard]] std::size_t count() const noexcept { return v_.size(); }
  [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
  /// Nearest-rank quantile, q in [0, 1]. Every statistic reads NaN when
  /// nothing was measured, so a layer that stops measuring cannot pass for
  /// one that reads 0.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Interquartile mean: the mean of the middle half (the median below 4
  /// samples). Robust to a few outliers like the median, but it averages
  /// more samples, so it moves less from run to run.
  [[nodiscard]] double iqm() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double sum() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// Scheduler time of one thread: on-CPU and runnable-but-waiting ns.
struct SchedTime {
  std::uint64_t run_ns = 0;
  std::uint64_t wait_ns = 0;

  SchedTime& operator+=(const SchedTime& o) noexcept {
    run_ns += o.run_ns;
    wait_ns += o.wait_ns;
    return *this;
  }
  friend SchedTime operator-(SchedTime a, const SchedTime& b) noexcept {
    a.run_ns -= b.run_ns;
    a.wait_ns -= b.wait_ns;
    return a;
  }
};

/// Thread ids currently in this process.
[[nodiscard]] std::vector<pid_t> list_threads();
/// Threads in `after` that were not in `before`.
[[nodiscard]] std::vector<pid_t> new_threads(const std::vector<pid_t>& before);
[[nodiscard]] pid_t this_tid();
/// Sum of schedstat over `tids` (threads that already exited count 0).
[[nodiscard]] SchedTime sched_time(const std::vector<pid_t>& tids);

/// CPU time the hypervisor withheld from this VM ("steal" in /proc/stat),
/// summed over all CPUs, ns; 0 where the kernel does not report it.
[[nodiscard]] std::uint64_t steal_ns();
/// Share of all CPUs' time stolen since `since` (a steal_ns() reading
/// taken `wall_ns` ago).
[[nodiscard]] double steal_share(std::uint64_t since, double wall_ns);
/// Above this steal share a run measures the host, not the system.
inline constexpr double kMaxStealShare = 0.05;

/// Whole-process CPU (user + system) from getrusage, ns.
[[nodiscard]] std::uint64_t process_cpu_ns();

/// Peak resident memory of a workload's timed phase, net of its set-up.
/// Construct it when set-up is done: it returns freed heap memory to the
/// kernel, resets the process's high-water mark (VmHWM) to its current RSS
/// and notes that RSS. growth_mib() is then how far the high-water mark
/// has risen above it, so the figure is what the system under test (and
/// the buffers that hold its outputs) added, not the benchmark's inputs.
class PeakRssGrowth {
 public:
  PeakRssGrowth();
  /// MiB; NaN when the kernel does not let the mark be reset.
  [[nodiscard]] double growth_mib() const;

 private:
  double base_mib_;
};

/// Pins the calling thread to the `nth` CPU (cyclically) of the set it may
/// run on, and restores that set when it goes out of scope. On a shared VM
/// each virtual CPU runs at its own speed, which drifts over seconds; a
/// repeated single-threaded timing that visits every CPU in turn averages
/// over them instead of reporting whichever one the process started on.
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t nth);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Runs `fn` at least `n` times and until `min_seconds` are spent, the
/// i-th time pinned to CPU i (see PinToCpu), and returns each run's wall
/// time in seconds.
template <typename Fn>
[[nodiscard]] Samples timed_runs(int n, double min_seconds, Fn&& fn);

/// Accumulates (time, items) pairs from any thread.
struct LayerClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> items{0};

  void add(std::uint64_t dt, std::uint64_t n) noexcept {
    ns.fetch_add(dt, std::memory_order_relaxed);
    items.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] double ns_per_item() const noexcept {
    const auto n = items.load(std::memory_order_relaxed);
    return n == 0 ? 0.0
                  : static_cast<double>(ns.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }
};

/// Spans of a traced run, kept in memory on a private tracer (large
/// per-thread rings, separate from the system's always-on Tracer) and
/// written at exit as Chrome Trace Event JSON, the format the system's own
/// /trace endpoint serves (loadable in Perfetto).
class SpanLog {
 public:
  static SpanLog& instance();

  void enable() noexcept { on_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return on_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t id(const char* cat, const char* name) {
    return tracer_.intern(cat, name);
  }
  void emit(std::uint32_t id, std::uint64_t t0, std::uint64_t t1,
            std::uint64_t arg = 0) {
    if (enabled()) tracer_.emit(id, t0, t1, arg);
  }
  void name_thread(const std::string& name) {
    if (enabled()) tracer_.set_this_thread_name(name);
  }
  [[nodiscard]] std::uint64_t dropped() const { return tracer_.dropped(); }
  /// Returns false on I/O error.
  bool write(const std::string& path);

 private:
  SpanLog();
  std::atomic<bool> on_{false};
  lockdown::obs::Tracer tracer_;
};

/// RAII span on the SpanLog; also adds its duration to an optional clock.
class Span {
 public:
  Span(std::uint32_t id, LayerClock* clock = nullptr, std::uint64_t items = 0)
      : id_(id), clock_(clock), items_(items), t0_(now_ns()) {}
  ~Span() {
    const std::uint64_t t1 = now_ns();
    if (clock_ != nullptr) clock_->add(t1 - t0_, items_);
    SpanLog::instance().emit(id_, t0_, t1, items_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint32_t id_;
  LayerClock* clock_;
  std::uint64_t items_;
  std::uint64_t t0_;
};

/// Where the numbers came from. Results are only comparable between equal
/// stamps (git_sha aside).
struct HostStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string kernel;
  std::string compiler;
  std::string build_type;
  std::string git_sha;

  [[nodiscard]] std::string json() const;
};
[[nodiscard]] HostStamp host_stamp();

/// One metric of the final result line. Units are BENCHMARK.json's, which
/// run.py attaches; a value that is not finite is printed as null and
/// fails the run.
struct Metric {
  std::string name;
  double value = 0.0;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Reasons the run is not a valid measurement (empty = valid).
  std::vector<std::string> invalid;
  std::vector<Metric> end_to_end;
  /// Per-layer metrics this workload measures (traced runs) ...
  std::vector<Metric> per_layer;
  /// ... and the per-layer metrics of BENCHMARK.json it does not exercise.
  /// run.py fails the run unless the two lists together name every
  /// per-layer metric exactly once; only the second are reported as 0.
  std::vector<std::string> not_applicable;
};

/// Command-line knobs every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test size: a small input, only to prove every metric is emitted.
  bool tiny = false;
  std::string trace_out;
};

/// Format a double with every significant digit (round-trip exact);
/// "nan" when it is not finite.
[[nodiscard]] std::string num(double v);
/// a / b; NaN when b is 0.
[[nodiscard]] inline double ratio(double a, double b) {
  return b == 0 ? std::nan("") : a / b;
}
[[nodiscard]] std::string json_escape(const std::string& s);

/// Print `rows` as an aligned two-or-more-column text table.
void print_table(const std::string& title,
                 const std::vector<std::vector<std::string>>& rows);

template <typename Fn>
Samples timed_runs(int n, double min_seconds, Fn&& fn) {
  Samples s;
  double spent = 0;
  for (std::size_t i = 0; static_cast<int>(i) < n || spent < min_seconds; ++i) {
    const PinToCpu pin(i);
    const std::uint64_t a = now_ns();
    fn();
    const double took = static_cast<double>(now_ns() - a) / 1e9;
    s.add(took);
    spent += took;
  }
  return s;
}

}  // namespace perfbench
