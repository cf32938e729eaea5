// perfbench_e2e: end-to-end benchmark of the flow collector.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--trace-out FILE]
//
// Prints human-readable tables, then as its last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:value},
//    "not_applicable":[name,...]}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics the
// workload measures (--trace 1); run.py turns it into the result line.
// Exit codes: 0 = valid run, 3 = result printed but the run was invalid
// (generator behind schedule, drops in the closed loop, or system threads
// starved of CPU), 2 = usage error, 1 = failure.
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

int usage() {
  std::cerr << "usage: perfbench_e2e --workload ixp_ipfix_live|"
               "isp_v9_many_exporters|report_from_slices --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE]\n";
  return 2;
}

/// The result line run.py turns into the benchmark's: values without
/// units (run.py takes names and units from BENCHMARK.json), null for a
/// value that was not measured, and in traced runs the per-layer metrics
/// the workload does not exercise.
void print_result(const Outcome& out, bool trace) {
  const std::vector<Metric>& metrics = trace ? out.per_layer : out.end_to_end;
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    const double v = metrics[i].value;
    line += "\"" + metrics[i].name + "\": " + (std::isfinite(v) ? num(v) : "null");
  }
  line += "}, \"not_applicable\": [";
  if (trace) {
    for (std::size_t i = 0; i < out.not_applicable.size(); ++i) {
      line += (i > 0 ? ", \"" : "\"") + out.not_applicable[i] + "\"";
    }
  }
  line += "]}";
  std::cout << line << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      cfg.trace_out = argv[++i];
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else {
      return usage();
    }
  }
  if (cfg.workload.empty() || !have_seed || cfg.seconds <= 0) return usage();

  const HostStamp host = host_stamp();
  std::cout << "host: " << host.json() << "\n";
  std::cout << "workload: " << cfg.workload << "  seed: " << cfg.seed
            << "  seconds: " << cfg.seconds << "  trace: " << cfg.trace
            << (cfg.tiny ? "  (tiny self-test size)" : "") << "\n";
  if (cfg.trace) SpanLog::instance().enable();

  Outcome out;
  try {
    if (cfg.workload == "ixp_ipfix_live") {
      out = run_ixp_ipfix_live(cfg);
    } else if (cfg.workload == "isp_v9_many_exporters") {
      out = run_isp_v9_many_exporters(cfg);
    } else if (cfg.workload == "report_from_slices") {
      out = run_report_from_slices(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  if (cfg.trace && !cfg.trace_out.empty()) {
    if (SpanLog::instance().write(cfg.trace_out)) {
      std::cout << "span trace -> " << cfg.trace_out << " ("
                << SpanLog::instance().dropped()
                << " spans lost to ring wrap)\n";
    } else {
      std::cerr << "perfbench: cannot write " << cfg.trace_out << "\n";
    }
  }
  for (const std::string& why : out.invalid) {
    std::cout << "RUN INVALID: " << why << "\n";
  }
  print_result(out, cfg.trace);
  return out.invalid.empty() ? 0 : 3;
}
