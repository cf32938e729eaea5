#include "analysis/vpn.hpp"

#include <algorithm>

#include "filter/plan.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

using flow::IpProtocol;

VpnAnalyzer::VpnAnalyzer(std::vector<net::TimeRange> weeks,
                         std::set<net::IpAddress> domain_candidates)
    : weeks_(std::move(weeks)), candidates_(std::move(domain_candidates)),
      week_index_(weeks_) {
  bytes_.assign(weeks_.size(), {});
}

bool VpnAnalyzer::is_port_vpn(const flow::FlowRecord& r) noexcept {
  if (r.protocol == IpProtocol::kGre || r.protocol == IpProtocol::kEsp) {
    return true;
  }
  if (r.protocol != IpProtocol::kTcp && r.protocol != IpProtocol::kUdp) {
    return false;
  }
  const std::uint16_t port = r.service_port().port;
  switch (port) {
    case 500:
    case 4500:
    case 1194:
    case 1701:
    case 1723:
      return true;
    default:
      return false;
  }
}

bool VpnAnalyzer::is_domain_vpn(const flow::FlowRecord& r) const noexcept {
  if (r.protocol != IpProtocol::kTcp || r.service_port().port != 443) {
    return false;
  }
  return candidates_.contains(r.src_addr) || candidates_.contains(r.dst_addr);
}

void VpnAnalyzer::add_batch(std::span<const flow::FlowRecord> records,
                            const filter::FlowColumns& cols) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const flow::FlowRecord& r = records[i];
    const std::size_t week = week_index_.lookup(r.first);
    if (week == weeks_.size()) continue;

    // Port classification off the pre-computed service key (proto << 16 |
    // service port) -- identical decision to is_port_vpn()/is_domain_vpn().
    const std::uint32_t service = cols.service[i];
    const auto proto = static_cast<IpProtocol>(service >> 16);
    const auto port = static_cast<std::uint16_t>(service & 0xffff);
    bool port_vpn = proto == IpProtocol::kGre || proto == IpProtocol::kEsp;
    if (!port_vpn && (proto == IpProtocol::kTcp || proto == IpProtocol::kUdp)) {
      port_vpn = port == 500 || port == 4500 || port == 1194 || port == 1701 ||
                 port == 1723;
    }
    const bool domain_vpn =
        !port_vpn && proto == IpProtocol::kTcp && port == 443 &&
        (candidates_.contains(r.src_addr) || candidates_.contains(r.dst_addr));
    if (!port_vpn && !domain_vpn) continue;

    const std::size_t method = port_vpn ? 0 : 1;
    const DayFlagsCache::Flags& day = day_cache_.at(r.first);
    bytes_[week][method][day.weekend ? 1 : 0][DayFlagsCache::hour_of(day, r.first)] +=
        util::counter_to_double(r.bytes);
  }
}

void VpnAnalyzer::merge(const VpnAnalyzer& other) {
  for (std::size_t w = 0; w < bytes_.size() && w < other.bytes_.size(); ++w) {
    for (std::size_t m = 0; m < 2; ++m) {
      for (std::size_t we = 0; we < 2; ++we) {
        for (std::size_t h = 0; h < 24; ++h) {
          bytes_[w][m][we][h] += other.bytes_[w][m][we][h];
        }
      }
    }
  }
}

std::vector<VpnAnalyzer::Profile> VpnAnalyzer::profiles() const {
  // Day counts per week for hourly averages.
  std::vector<std::array<double, 2>> day_counts(weeks_.size(), {0.0, 0.0});
  for (std::size_t w = 0; w < weeks_.size(); ++w) {
    for (net::Timestamp t = weeks_[w].begin.floor_day(); t < weeks_[w].end;
         t = t.plus(net::kSecondsPerDay)) {
      ++day_counts[w][net::is_weekend(t.weekday()) ? 1 : 0];
    }
  }

  double max_avg = 0.0;
  std::vector<Profile> out;
  for (std::size_t w = 0; w < weeks_.size(); ++w) {
    for (const std::size_t method : {0u, 1u}) {
      Profile p;
      p.method = method == 0 ? VpnMethod::kPort : VpnMethod::kDomain;
      p.week_index = w;
      for (unsigned h = 0; h < 24; ++h) {
        for (const std::size_t weekend : {0u, 1u}) {
          const double days = day_counts[w][weekend];
          const double avg =
              days > 0 ? bytes_[w][method][weekend][h] / days : 0.0;
          (weekend ? p.weekend : p.workday)[h] = avg;
          max_avg = std::max(max_avg, avg);
        }
      }
      out.push_back(p);
    }
  }
  if (max_avg > 0.0) {
    for (Profile& p : out) {
      for (unsigned h = 0; h < 24; ++h) {
        p.workday[h] /= max_avg;
        p.weekend[h] /= max_avg;
      }
    }
  }
  return out;
}

double VpnAnalyzer::working_hours_growth(VpnMethod method, std::size_t w) const {
  const std::size_t m = method == VpnMethod::kPort ? 0 : 1;
  auto working_sum = [&](std::size_t week) {
    double sum = 0.0;
    for (unsigned h = 9; h < 17; ++h) sum += bytes_[week][m][0][h];
    return sum;
  };
  const double base = working_sum(0);
  if (base <= 0.0) return 0.0;
  return 100.0 * (working_sum(w) - base) / base;
}

}  // namespace lockdown::analysis
