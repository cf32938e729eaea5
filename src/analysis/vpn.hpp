// §6 / Fig 10: VPN traffic identification, twofold as in the paper:
//
//   * port-based -- well-known VPN transport ports/protocols: IPsec
//     (UDP 500/4500), OpenVPN (1194), L2TP (1701), PPTP (1723), both TCP
//     and UDP, plus the GRE and ESP protocols;
//   * domain-based -- TCP/443 traffic to/from the candidate addresses the
//     dns::VpnCandidateFinder produced from the *vpn* corpus search.
//
// Aggregates hourly volume per method, per analysis week, split into
// workday and weekend averages (Fig 10 shows workdays as positive and
// weekends as negative bars).
#pragma once

#include <set>
#include <span>
#include <vector>

#include "analysis/day_cache.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"
#include "net/ip.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

enum class VpnMethod : std::uint8_t { kPort, kDomain };

class VpnAnalyzer {
 public:
  VpnAnalyzer(std::vector<net::TimeRange> weeks,
              std::set<net::IpAddress> domain_candidates);

  /// True if the record matches the port-based VPN definition.
  [[nodiscard]] static bool is_port_vpn(const flow::FlowRecord& r) noexcept;

  /// True if the record is TCP/443 to or from a domain-identified gateway.
  [[nodiscard]] bool is_domain_vpn(const flow::FlowRecord& r) const noexcept;

  /// Week lookup through the compiled WeekIndex, port classification off
  /// the batch's service-key column (`cols`, built over exactly
  /// `records`), weekend/hour from the shared day cache.
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling analyzer (same weeks/candidates) into this one;
  /// exact-integer hourly bins merge order-independently.
  void merge(const VpnAnalyzer& other);

  /// Average hourly volume for (method, week, hour-of-day, weekend?),
  /// normalized by the maximum across everything (Fig 10's shared scale).
  struct Profile {
    VpnMethod method = VpnMethod::kPort;
    std::size_t week_index = 0;
    std::array<double, 24> workday{};
    std::array<double, 24> weekend{};
  };
  [[nodiscard]] std::vector<Profile> profiles() const;

  /// Growth of working-hours (9-17h) workday volume of week `w` relative
  /// to week 0, in percent, per method.
  [[nodiscard]] double working_hours_growth(VpnMethod method, std::size_t w) const;

 private:
  std::vector<net::TimeRange> weeks_;
  std::set<net::IpAddress> candidates_;
  WeekIndex week_index_;
  DayFlagsCache day_cache_;
  // bytes_[week][method][weekend][hour]
  std::vector<std::array<std::array<std::array<double, 24>, 2>, 2>> bytes_;
};

}  // namespace lockdown::analysis
