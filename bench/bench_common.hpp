// Shared scaffolding for the per-figure bench binaries. Each binary prints
// its figure/table reproduction (the same rows/series the paper reports)
// and then runs google-benchmark timings of the pipeline that produced it.
#pragma once

#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/as_view.hpp"
#include "analysis/scan.hpp"
#include "obs/build_info.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace lockdown::bench {

inline const synth::AsRegistry& registry() {
  static const synth::AsRegistry reg = synth::AsRegistry::create_default();
  return reg;
}

/// Generator threads for every FlowSynthesizer the bench scaffolding
/// builds. Defaults to 1 (inline); set by `--gen-threads N` on any bench
/// binary or the LOCKDOWN_GEN_THREADS environment variable. The record
/// stream is identical for any value (SynthesisConfig::gen_threads
/// determinism contract), so this only changes synthesis wall-clock.
inline std::size_t& gen_threads() {
  static std::size_t value = [] {
    if (const char* env = std::getenv("LOCKDOWN_GEN_THREADS");
        env != nullptr && *env != '\0') {
      return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    return std::size_t{1};
  }();
  return value;
}

/// Analysis scan lanes (analysis::ScanEngine worker threads) used by
/// benches that scan a record stream outside of a BENCHMARK Arg sweep.
/// Defaults to 1; set by `--scan-threads N` or LOCKDOWN_SCAN_THREADS. The
/// scan output is bit-identical for any value (ScanEngine determinism
/// contract), so this only changes wall-clock.
inline std::size_t& scan_threads() {
  static std::size_t value = [] {
    if (const char* env = std::getenv("LOCKDOWN_SCAN_THREADS");
        env != nullptr && *env != '\0') {
      return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    return std::size_t{1};
  }();
  return value;
}

/// Strip one `--<name> N` / `--<name>=N` size flag from argv into `value`.
/// Returns the new argc.
inline int parse_size_flag(int argc, char** argv, const std::string& flag,
                           std::size_t& value) {
  const std::string eq_prefix = flag + "=";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) {
      value = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind(eq_prefix, 0) == 0) {
      value = static_cast<std::size_t>(
          std::strtoul(arg.c_str() + eq_prefix.size(), nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

/// Strip the thread flags (`--gen-threads N`, `--scan-threads N`) from argv
/// before benchmark::Initialize sees (and rejects) them.
inline void parse_thread_flags(int& argc, char** argv) {
  argc = parse_size_flag(argc, argv, "--gen-threads", gen_threads());
  argc = parse_size_flag(argc, argv, "--scan-threads", scan_threads());
}

/// Synthesis settings of every bench stream: `connections_per_hour` on
/// gen_threads() generator threads.
inline synth::SynthesisConfig synth_config(double connections_per_hour) {
  return {.connections_per_hour = connections_per_hour,
          .gen_threads = gen_threads()};
}

/// Synthesize `ranges` at a vantage point through the wire pipeline into a
/// ScanEngine of scan_threads() lanes, each lane aggregating into its own
/// `factory()` bundle, and return the merged bundle. Endpoint ASes resolve
/// against registry().trie(), the snapshot every bench AsView uses.
template <typename Factory>
[[nodiscard]] std::invoke_result_t<Factory> scan(
    const synth::VantagePoint& vp, const std::vector<net::TimeRange>& ranges,
    double connections_per_hour, const Factory& factory) {
  analysis::ScanEngine<std::invoke_result_t<Factory>> engine(
      static_cast<unsigned>(scan_threads()), factory, &registry().trie());
  for (const net::TimeRange& range : ranges) {
    analysis::synthesize_through_wire(vp, registry(), range,
                                      synth_config(connections_per_hour), engine);
  }
  return std::move(engine.finish());
}

inline std::string fmt(double v, int decimals = 2) {
  return util::format_fixed(v, decimals);
}

inline std::string pct(double v, int decimals = 1) {
  return (v >= 0 ? "+" : "") + util::format_fixed(v, decimals) + "%";
}

/// Standard micro-benchmark: full synthesize -> wire -> collect throughput
/// of one day at a vantage point. Registered by most binaries so every
/// figure's substrate cost is measured.
inline void bench_pipeline_day(benchmark::State& state, synth::VantagePointId id) {
  const auto vp = synth::build_vantage(id, registry(),
                                       {.seed = 42, .enterprise_transit = false});
  const auto day = net::TimeRange::day_of(net::Date(2020, 3, 25));
  for (auto _ : state) {
    std::uint64_t bytes = 0;
    std::size_t records = 0;
    analysis::synthesize_through_wire(
        vp, registry(), day, synth_config(500),
        [&](std::span<const flow::FlowRecord> batch) {
          for (const flow::FlowRecord& r : batch) bytes += r.bytes;
          records += batch.size();
        });
    benchmark::DoNotOptimize(bytes);
    state.counters["records"] =
        benchmark::Counter(static_cast<double>(records));
  }
}

/// One finished benchmark run, in the shape the perf-smoke CI job consumes.
struct BenchJsonEntry {
  std::string name;
  double ns_per_op = 0.0;
  double records_per_s = 0.0;  ///< 0 when the bench reports no item rate
};

/// Console output plus machine-readable collection: every iteration run
/// that finishes without error is kept for write_bench_json(), and so is
/// every time-valued aggregate of --benchmark_repetitions (named
/// `<series>_mean`, `_median`, `_stddev`).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      if (run.run_type == Run::RT_Aggregate &&
          run.aggregate_unit != benchmark::kTime) {
        continue;
      }
      BenchJsonEntry e;
      e.name = run.benchmark_name();
      if (run.iterations > 0) {
        e.ns_per_op = run.real_accumulated_time /
                      static_cast<double>(run.iterations) * 1e9;
      }
      if (const auto it = run.counters.find("items_per_second");
          it != run.counters.end()) {
        e.records_per_s = it->second;
      }
      entries_.push_back(std::move(e));
    }
  }

  [[nodiscard]] const std::vector<BenchJsonEntry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::vector<BenchJsonEntry> entries_;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // names never need them
    out.push_back(c);
  }
  return out;
}

/// Peak resident set size of this process so far, in bytes (0 if the query
/// fails). Recorded into every BENCH json so memory regressions of the
/// bench workloads travel with the timing artifacts.
[[nodiscard]] inline std::uint64_t max_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// The host a bench ran on, in the fields of perfbench's HostStamp, as a
/// JSON object: results from different hosts are not comparable.
[[nodiscard]] inline std::string host_json() {
  std::string cpu_model;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      if (const auto colon = line.find(':'); colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        if (begin != std::string::npos) cpu_model = line.substr(begin);
      }
      break;
    }
  }
  utsname u{};
  const std::string kernel = uname(&u) == 0 ? u.release : "";
  const auto& info = obs::build_info();
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_model\": \"" + json_escape(cpu_model) + "\", \"kernel\": \"" +
         json_escape(kernel) + "\", \"compiler\": \"" + json_escape(info.compiler) +
         "\", \"build_type\": \"" + json_escape(LOCKDOWN_BENCH_BUILD_TYPE) +
         "\", \"git_sha\": \"" + json_escape(info.git_sha) + "\"}";
}

/// Write `BENCH_<binary-name>.json` into $LOCKDOWN_BENCH_JSON_DIR (cwd if
/// unset). No file is written when no benchmark ran (e.g. a
/// --benchmark_filter that matches nothing), so CI artifacts only contain
/// real measurements. Returns false, after naming the path and the reason
/// on stderr, when the file cannot be written.
[[nodiscard]] inline bool write_bench_json(
    const char* argv0, const std::vector<BenchJsonEntry>& entries) {
  if (entries.empty()) return true;
  std::string base = argv0 != nullptr ? argv0 : "bench";
  if (const auto slash = base.find_last_of('/'); slash != std::string::npos) {
    base = base.substr(slash + 1);
  }
  std::string dir = ".";
  if (const char* env = std::getenv("LOCKDOWN_BENCH_JSON_DIR");
      env != nullptr && *env != '\0') {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + base + ".json";
  std::ostringstream out;
  out << "{\n  \"binary\": \"" << json_escape(base) << "\",\n  \"host\": "
      << host_json() << ",\n  \"max_rss_bytes\": " << max_rss_bytes()
      << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchJsonEntry& e = entries[i];
    out << "    {\"name\": \"" << json_escape(e.name) << "\", \"ns_per_op\": "
        << e.ns_per_op << ", \"records_per_s\": " << e.records_per_s << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const std::string json = out.str();
  if (const std::string err = util::write_whole_file(path, json.data(), json.size());
      !err.empty()) {
    std::cerr << "error: cannot write " << path << ": " << err << "\n";
    return false;
  }
  return true;
}

/// Print-then-benchmark main. Define `print_reproduction()` in the binary
/// and call LOCKDOWN_BENCH_MAIN(print_reproduction). Timings additionally
/// land in BENCH_<binary>.json (see write_bench_json); the binary exits 1
/// when that file cannot be written.
#define LOCKDOWN_BENCH_MAIN(print_fn)                       \
  int main(int argc, char** argv) {                         \
    ::lockdown::bench::parse_thread_flags(argc, argv);      \
    print_fn();                                             \
    ::benchmark::Initialize(&argc, argv);                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::lockdown::bench::JsonCollectingReporter reporter;     \
    ::benchmark::RunSpecifiedBenchmarks(&reporter);         \
    const bool written =                                    \
        ::lockdown::bench::write_bench_json(argv[0], reporter.entries()); \
    ::benchmark::Shutdown();                                \
    return written ? 0 : 1;                                 \
  }

}  // namespace lockdown::bench
