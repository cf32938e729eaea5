// trace_tool: a small nfdump-style CLI over the binary trace format.
//
//   trace_tool synth <out.lft> [vantage] [date] [days]   synthesize a trace
//   trace_tool info  <in.lft>                            header + summary
//   trace_tool top   <in.lft> [n]                        top service ports
//   trace_tool hosts <in.lft> [n]                        top server ASes
//
// Demonstrates the persistence path real deployments use: collector spools
// records to disk, analysis jobs read them back later -- no synthesizer or
// scenario knowledge needed on the reading side.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "flow/trace_file.hpp"
#include "synth/as_registry.hpp"
#include "synth/synthesizer.hpp"
#include "synth/vantage.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace lockdown;

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tool synth <out.lft> [isp-ce|ixp-ce|ixp-se|ixp-us|edu]"
               " [YYYY-MM-DD] [days]\n"
            << "  trace_tool info  <in.lft>\n"
            << "  trace_tool top   <in.lft> [n]\n"
            << "  trace_tool hosts <in.lft> [n]\n";
  return 2;
}

std::optional<synth::VantagePointId> parse_vantage(const std::string& name) {
  if (name == "isp-ce") return synth::VantagePointId::kIspCe;
  if (name == "ixp-ce") return synth::VantagePointId::kIxpCe;
  if (name == "ixp-se") return synth::VantagePointId::kIxpSe;
  if (name == "ixp-us") return synth::VantagePointId::kIxpUs;
  if (name == "edu") return synth::VantagePointId::kEdu;
  return std::nullopt;
}

int cmd_synth(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  const auto vantage_id =
      parse_vantage(argc > 3 ? argv[3] : "isp-ce");
  if (!vantage_id) return usage();
  const auto start =
      net::Date::parse(argc > 4 ? argv[4] : "2020-03-18");
  if (!start) return usage();
  const int days = argc > 5 ? std::atoi(argv[5]) : 1;
  if (days < 1 || days > 180) return usage();

  const auto registry = synth::AsRegistry::create_default();
  const auto vp = synth::build_vantage(*vantage_id, registry,
                                       {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(vp.model, registry,
                                     {.connections_per_hour = 800});

  flow::TraceWriter writer;
  synth.synthesize(
      net::TimeRange{net::Timestamp::from_date(*start),
                     net::Timestamp::from_date(start->plus_days(days))},
      [&](const flow::FlowRecord& r) { writer.append(r); });
  const std::size_t n = writer.records_written();
  if (const std::string err = writer.write_file(path); !err.empty()) {
    std::cerr << "error: cannot write " << path << ": " << err << "\n";
    return 1;
  }
  std::cout << "wrote " << n << " records (" << to_string(*vantage_id) << ", "
            << start->to_string() << " +" << days << "d) to " << path << "\n";
  return 0;
}

int cmd_info(const std::string& path) {
  const auto trace = flow::read_trace_file(path);
  if (!trace) {
    std::cerr << "error: " << path << " is not a readable trace\n";
    return 1;
  }
  double bytes = 0;
  net::Timestamp first, last;
  bool first_set = false;
  std::size_t v6 = 0;
  for (const auto& r : trace->records) {
    bytes += static_cast<double>(r.bytes);
    if (!first_set || r.first < first) first = r.first;
    if (!first_set || last < r.last) last = r.last;
    first_set = true;
    v6 += r.src_addr.is_v6() ? 1 : 0;
  }
  std::cout << "trace:    " << path << (trace->truncated ? "  (TRUNCATED)" : "")
            << "\n";
  std::cout << "records:  " << trace->records.size() << "  (" << v6 << " IPv6)\n";
  std::cout << "bytes:    " << util::format_bytes(bytes) << "\n";
  if (first_set) {
    std::cout << "window:   " << first.to_string() << " .. " << last.to_string()
              << "\n";
  }
  return 0;
}

/// Exact per-key totals, largest first (ties broken by the larger key).
template <typename Key>
std::vector<std::pair<double, Key>> rank_by_total(
    const std::map<Key, double>& totals) {
  std::vector<std::pair<double, Key>> ranked;
  for (const auto& [key, total] : totals) ranked.push_back({total, key});
  std::sort(ranked.rbegin(), ranked.rend());
  return ranked;
}

int cmd_top(const std::string& path, std::size_t n) {
  const auto trace = flow::read_trace_file(path);
  if (!trace) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }
  std::map<flow::PortKey, double> per_port;
  double total = 0;
  for (const auto& r : trace->records) {
    per_port[r.service_port()] += static_cast<double>(r.bytes);
    total += static_cast<double>(r.bytes);
  }
  const auto ranked = rank_by_total(per_port);
  util::Table table({"port", "bytes", "share"});
  for (std::size_t i = 0; i < std::min(n, ranked.size()); ++i) {
    const auto& [bytes, port] = ranked[i];
    table.add_row({port.to_string(), util::format_bytes(bytes),
                   util::format_fixed(100 * bytes / total, 1) + "%"});
  }
  std::cout << table;
  return 0;
}

int cmd_hosts(const std::string& path, std::size_t n) {
  const auto trace = flow::read_trace_file(path);
  if (!trace) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }
  const auto registry = synth::AsRegistry::create_default();
  std::map<std::uint32_t, double> per_as;
  for (const auto& r : trace->records) {
    // Server side: the lower-port endpoint.
    const bool dst_is_server = r.dst_port <= r.src_port;
    per_as[(dst_is_server ? r.dst_as : r.src_as).value()] +=
        static_cast<double>(r.bytes);
  }
  const auto ranked = rank_by_total(per_as);

  util::Table table({"ASN", "organization", "bytes"});
  for (std::size_t i = 0; i < std::min(n, ranked.size()); ++i) {
    const auto* info = registry.find(net::Asn(ranked[i].second));
    table.add_row({"AS" + std::to_string(ranked[i].second),
                   info ? info->name : "(unknown)",
                   util::format_bytes(ranked[i].first)});
  }
  std::cout << table;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "synth") return cmd_synth(argc, argv);
  if (argc < 3) return usage();
  const std::string path = argv[2];
  const std::size_t n = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 12;
  if (cmd == "info") return cmd_info(path);
  if (cmd == "top") return cmd_top(path, n);
  if (cmd == "hosts") return cmd_hosts(path, n);
  return usage();
}
