#include "analysis/edu.hpp"

#include <vector>

#include "filter/plan.hpp"
#include "stats/ecdf.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

using flow::IpProtocol;

std::optional<EduClass> EduAnalyzer::classify_port(
    const flow::FlowRecord& r) const noexcept {
  const flow::PortKey p = r.service_port();
  const std::uint32_t service =
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p.proto)) << 16) |
      p.port;
  return classify_cols(service, view_.src_as(r).value(), view_.dst_as(r).value());
}

std::optional<EduClass> EduAnalyzer::classify_cols(
    std::uint32_t service, std::uint32_t src, std::uint32_t dst) const noexcept {
  const auto proto = static_cast<IpProtocol>(service >> 16);
  // VPN protocols first (no ports).
  if (proto == IpProtocol::kGre || proto == IpProtocol::kEsp) {
    return EduClass::kVpn;
  }
  if (proto != IpProtocol::kTcp && proto != IpProtocol::kUdp) {
    return std::nullopt;
  }

  // Spotify is also identified by AS 8403 (Appendix B).
  if (src == 8403 || dst == 8403) {
    return EduClass::kSpotify;
  }

  const auto port = static_cast<std::uint16_t>(service & 0xffff);
  const bool tcp = proto == IpProtocol::kTcp;
  const bool udp = proto == IpProtocol::kUdp;

  switch (port) {
    case 443:
      if (udp) return EduClass::kQuic;
      [[fallthrough]];
    case 80:
    case 8000:
    case 8080:
      if (tcp) {
        const bool hg =
            hypergiants_.contains(src) || hypergiants_.contains(dst);
        return hg ? EduClass::kHypergiantWeb : EduClass::kWeb;
      }
      return std::nullopt;
    case 5223:
    case 5228:
      return tcp ? std::optional(EduClass::kPushNotifications) : std::nullopt;
    case 25:
    case 110:
    case 143:
    case 465:
    case 587:
    case 993:
    case 995:
      return tcp ? std::optional(EduClass::kEmail) : std::nullopt;
    case 500:
      return udp ? std::optional(EduClass::kVpn) : std::nullopt;
    case 1194:
      return EduClass::kVpn;  // TCP and UDP (Appendix B)
    case 4500:
      return udp ? std::optional(EduClass::kVpn) : std::nullopt;
    case 22:
      return tcp ? std::optional(EduClass::kSsh) : std::nullopt;
    case 1494:
    case 5938:
      return EduClass::kRemoteDesktop;  // Citrix / TeamViewer, TCP+UDP
    case 3389:
      return tcp ? std::optional(EduClass::kRemoteDesktop) : std::nullopt;
    case 4070:
      return tcp ? std::optional(EduClass::kSpotify) : std::nullopt;
    default:
      return std::nullopt;
  }
}

void EduAnalyzer::add_batch(std::span<const flow::FlowRecord> records,
                            const filter::FlowColumns& cols) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const flow::FlowRecord& r = records[i];
    const std::uint32_t src = cols.src_as[i];
    const std::uint32_t dst = cols.dst_as[i];
    const bool dst_inside = universities_.contains(dst);
    const bool src_inside = universities_.contains(src);
    const double bytes = util::counter_to_double(r.bytes);

    // Byte-level directionality (Fig 11): every flow crossing the border
    // is either entering or leaving.
    if (dst_inside && !src_inside) {
      volume_in_.add(r.first, bytes);
    } else if (src_inside && !dst_inside) {
      volume_out_.add(r.first, bytes);
    }

    // Connection counting: request-direction flows only. Clients use
    // ephemeral ports (> service port); portless protocols count as
    // requests towards the ESP/GRE terminator.
    const bool portless =
        r.protocol == IpProtocol::kGre || r.protocol == IpProtocol::kEsp;
    const bool is_request = portless || r.dst_port < r.src_port;
    if (!is_request) continue;

    // A connection is oriented by its service side; without a recognizable
    // service the paper could not orient 39% of flows.
    const auto cls = classify_cols(cols.service[i], src, dst);
    Direction dir = Direction::kUndetermined;
    if (cls.has_value()) {
      if (dst_inside && !src_inside) {
        dir = Direction::kIncoming;
      } else if (src_inside && !dst_inside) {
        dir = Direction::kOutgoing;
      }
    }
    const std::int64_t day = day_cache_.at(r.first).day_begin;

    connections_total_[day] += 1.0;
    connections_by_dir_[dir][day] += 1.0;
    if (dir == Direction::kUndetermined) {
      undetermined_ += 1.0;
    } else {
      determined_ += 1.0;
    }
    if (cls) {
      connections_[{*cls, dir}][day] += 1.0;
      // Hypergiant web also counts as plain web (it *is* web traffic).
      if (*cls == EduClass::kHypergiantWeb) {
        connections_[{EduClass::kWeb, dir}][day] += 1.0;
      }
    }
  }
}

void EduAnalyzer::merge(const EduAnalyzer& other) {
  volume_in_.merge(other.volume_in_);
  volume_out_.merge(other.volume_out_);
  for (const auto& [key, daily] : other.connections_) {
    auto& mine = connections_[key];
    for (const auto& [day, count] : daily) mine[day] += count;
  }
  for (const auto& [dir, daily] : other.connections_by_dir_) {
    auto& mine = connections_by_dir_[dir];
    for (const auto& [day, count] : daily) mine[day] += count;
  }
  for (const auto& [day, count] : other.connections_total_) {
    connections_total_[day] += count;
  }
  undetermined_ += other.undetermined_;
  determined_ += other.determined_;
}

double EduAnalyzer::daily_volume(net::Date d) const {
  const net::Timestamp t = net::Timestamp::from_date(d);
  return volume_in_.at(t) + volume_out_.at(t);
}

double EduAnalyzer::in_out_ratio(net::Date d) const {
  const net::Timestamp t = net::Timestamp::from_date(d);
  const double out = volume_out_.at(t);
  return out > 0.0 ? volume_in_.at(t) / out : 0.0;
}

std::vector<std::pair<net::Date, double>> EduAnalyzer::daily_connections(
    EduClass cls, Direction dir) const {
  std::vector<std::pair<net::Date, double>> out;
  const auto it = connections_.find({cls, dir});
  if (it == connections_.end()) return out;
  for (const auto& [day, count] : it->second) {
    out.emplace_back(net::Timestamp(day).date(), count);
  }
  return out;
}

std::vector<std::pair<net::Date, double>> EduAnalyzer::daily_connections(
    Direction dir) const {
  std::vector<std::pair<net::Date, double>> out;
  const auto it = connections_by_dir_.find(dir);
  if (it == connections_by_dir_.end()) return out;
  for (const auto& [day, count] : it->second) {
    out.emplace_back(net::Timestamp(day).date(), count);
  }
  return out;
}

double EduAnalyzer::median_of_range(const std::map<std::int64_t, double>& daily,
                                    net::TimeRange range) {
  std::vector<double> values;
  for (auto it = daily.lower_bound(range.begin.seconds());
       it != daily.end() && it->first < range.end.seconds(); ++it) {
    values.push_back(it->second);
  }
  return stats::median(std::move(values));
}

double EduAnalyzer::median_growth(EduClass cls, Direction dir,
                                  net::TimeRange before,
                                  net::TimeRange after) const {
  const auto it = connections_.find({cls, dir});
  if (it == connections_.end()) return 0.0;
  const double b = median_of_range(it->second, before);
  return b > 0.0 ? median_of_range(it->second, after) / b : 0.0;
}

double EduAnalyzer::median_growth(Direction dir, net::TimeRange before,
                                  net::TimeRange after) const {
  const auto it = connections_by_dir_.find(dir);
  if (it == connections_by_dir_.end()) return 0.0;
  const double b = median_of_range(it->second, before);
  return b > 0.0 ? median_of_range(it->second, after) / b : 0.0;
}

double EduAnalyzer::median_growth_total(net::TimeRange before,
                                        net::TimeRange after) const {
  const double b = median_of_range(connections_total_, before);
  return b > 0.0 ? median_of_range(connections_total_, after) / b : 0.0;
}

double EduAnalyzer::undetermined_fraction() const noexcept {
  const double total = undetermined_ + determined_;
  return total > 0.0 ? undetermined_ / total : 0.0;
}

}  // namespace lockdown::analysis
