// Ablation: VPN identification strategy (DESIGN.md section 5).
//
// Quantifies the paper's section 6 claim that port-only identification
// vastly undercounts VPN traffic: against the scenario's ground truth
// (which components are VPN), compare the traffic volume recovered by
// (a) ports only, (b) domains only, (c) both combined -- and the recall of
// the www-collision rule variants.
#include "analysis/vpn.hpp"
#include "bench_common.hpp"
#include "dns/corpus.hpp"
#include "dns/vpn_finder.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;
using synth::VantagePointId;

void print_reproduction() {
  std::cout << "=== Ablation: VPN identification strategies ===\n\n";

  const auto corpus = dns::generate_corpus({.seed = 5, .organizations = 3000});
  const auto psl = dns::PublicSuffixList::builtin();
  const auto funnel = dns::VpnCandidateFinder(psl).find(corpus.domains, corpus.dns);

  synth::ScenarioConfig cfg{.seed = 42};
  cfg.vpn_tls_server_ips.assign(funnel.candidate_ips.begin(),
                                funnel.candidate_ips.end());
  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(), cfg);

  // Ground truth from the scenario: every flow of a kVpnPort/kVpnTls
  // component is VPN. Measure per-strategy recovered volume during a
  // lockdown week.
  const TimeRange week = TimeRange::week_of(Date(2020, 3, 19));
  analysis::VpnAnalyzer analyzer({week}, funnel.candidate_ips);

  double truth = 0, port_found = 0, domain_found = 0, both_found = 0;
  const auto& vpn_tls = *ixp.model.find("vpn-tls");
  const auto& vpn_nat = *ixp.model.find("vpn-nat-traversal");
  const auto& vpn_gre = *ixp.model.find("vpn-site-tunnels");
  for (net::Timestamp h = week.begin; h < week.end; h = h.plus(3600)) {
    truth += ixp.model.expected_bytes(vpn_tls, h) +
             ixp.model.expected_bytes(vpn_nat, h) +
             ixp.model.expected_bytes(vpn_gre, h);
  }
  analysis::synthesize_through_wire(
      ixp, registry(), week, synth_config(900),
      [&](std::span<const flow::FlowRecord> batch) {
        for (const flow::FlowRecord& r : batch) {
          const bool port = analysis::VpnAnalyzer::is_port_vpn(r);
          const bool domain = analyzer.is_domain_vpn(r);
          const auto bytes = static_cast<double>(r.bytes);
          if (port) port_found += bytes;
          if (domain) domain_found += bytes;
          if (port || domain) both_found += bytes;
        }
      });

  util::Table table({"strategy", "VPN bytes recovered", "share of ground truth"});
  table.add_row({"ports only", util::format_bytes(port_found),
                 fmt(100 * port_found / truth, 1) + "%"});
  table.add_row({"domains only", util::format_bytes(domain_found),
                 fmt(100 * domain_found / truth, 1) + "%"});
  table.add_row({"combined (paper)", util::format_bytes(both_found),
                 fmt(100 * both_found / truth, 1) + "%"});
  table.add_row({"ground truth", util::format_bytes(truth), "100.0%"});
  std::cout << table << "\n";

  // The www rule's effect on the candidate set.
  std::cout << "Candidate funnel variants:\n";
  std::cout << "  without www rule: " << funnel.resolved_ips << " candidate IPs ("
            << funnel.eliminated_shared_ips
            << " of them are shared web front ends -> false positives)\n";
  std::cout << "  with www rule:    " << funnel.candidate_ips.size()
            << " candidate IPs (conservative, like the paper)\n";
  std::cout << "  port-only VPN servers invisible to the domain method: "
            << corpus.portonly_vpn_ips.size() << "\n\n";
  std::cout << "(takeaway: the paper's combined method is the only one that\n"
            << " recovers the VPN-over-TLS volume that drives the lockdown\n"
            << " signal; port-only identification misses it entirely)\n\n";
}

void BM_Abl_VpnClassify(benchmark::State& state) {
  const auto corpus = dns::generate_corpus({.seed = 5, .organizations = 1000});
  const auto psl = dns::PublicSuffixList::builtin();
  const auto funnel = dns::VpnCandidateFinder(psl).find(corpus.domains, corpus.dns);
  synth::ScenarioConfig cfg{.seed = 42};
  cfg.vpn_tls_server_ips.assign(funnel.candidate_ips.begin(),
                                funnel.candidate_ips.end());
  const auto ixp = synth::build_vantage(VantagePointId::kIxpCe, registry(), cfg);
  const synth::FlowSynthesizer synth(ixp.model, registry(),
                                     {.connections_per_hour = 500});
  const auto records = synth.collect(TimeRange::day_of(Date(2020, 3, 20)));
  const analysis::VpnAnalyzer analyzer({TimeRange::day_of(Date(2020, 3, 20))},
                                       funnel.candidate_ips);
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const auto& r : records) {
      hits += analysis::VpnAnalyzer::is_port_vpn(r) || analyzer.is_domain_vpn(r);
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Abl_VpnClassify)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
