// §7 / Fig 11-12: the educational metropolitan network.
//
//  * Volume analysis: daily totals for three key weeks (base, transition,
//    online-lecturing), Fig 11a.
//  * Directionality: ingress (into the EDU network) vs egress bytes per
//    day, Fig 11b's in/out ratio.
//  * Connection-level analysis: daily connection counts per (traffic
//    class, direction), classes per Appendix B, growth relative to a
//    pre-closure baseline, Fig 12 and the §7 median-growth numbers.
//
// A "connection" is a request-direction flow: the flow whose destination
// port is the service port (dst_port < src_port; clients use ephemeral
// ports). Direction follows the paper: a connection towards a service
// hosted inside the EDU network is incoming; one from inside to an outside
// service is outgoing; anything whose service port matches no known class
// and cannot be oriented is undetermined (39% of flows in the paper).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/as_view.hpp"
#include "analysis/day_cache.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"
#include "stats/timeseries.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

enum class EduClass : std::uint8_t {
  kWeb,
  kQuic,
  kPushNotifications,
  kEmail,
  kVpn,
  kSsh,
  kRemoteDesktop,
  kSpotify,
  kHypergiantWeb,  ///< web with a hypergiant on the far side
};

[[nodiscard]] constexpr const char* to_string(EduClass c) noexcept {
  switch (c) {
    case EduClass::kWeb: return "Web";
    case EduClass::kQuic: return "QUIC";
    case EduClass::kPushNotifications: return "Push notifications";
    case EduClass::kEmail: return "Email";
    case EduClass::kVpn: return "VPN";
    case EduClass::kSsh: return "SSH";
    case EduClass::kRemoteDesktop: return "Remote desktop";
    case EduClass::kSpotify: return "Spotify";
    case EduClass::kHypergiantWeb: return "Hypergiants (Web)";
  }
  return "?";
}

enum class Direction : std::uint8_t { kIncoming, kOutgoing, kUndetermined };

[[nodiscard]] constexpr const char* to_string(Direction d) noexcept {
  switch (d) {
    case Direction::kIncoming: return "In";
    case Direction::kOutgoing: return "Out";
    case Direction::kUndetermined: return "Undetermined";
  }
  return "?";
}

class EduAnalyzer {
 public:
  /// `universities`: the member institutions (the network's inside).
  /// `hypergiants`: Appendix A list, for the hypergiant-web class.
  EduAnalyzer(const AsView& view, AsnSet universities, AsnSet hypergiants)
      : view_(view), universities_(std::move(universities)),
        hypergiants_(std::move(hypergiants)), volume_in_(stats::Bucket::kDay),
        volume_out_(stats::Bucket::kDay) {}

  /// Appendix B port classification (port/protocol only; Spotify also by
  /// AS 8403).
  [[nodiscard]] std::optional<EduClass> classify_port(
      const flow::FlowRecord& r) const noexcept;

  /// Every AS consultation (direction, Spotify AS, hypergiant-web checks)
  /// reads the batch's pre-resolved columns (`cols`, built over exactly
  /// `records` against `view`'s routing snapshot).
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling analyzer (same university/hypergiant lists) into this
  /// one; counts and exact-integer byte bins merge order-independently.
  void merge(const EduAnalyzer& other);

  // --- Fig 11a: volume ----------------------------------------------------
  [[nodiscard]] const stats::TimeSeries& ingress_volume() const noexcept {
    return volume_in_;
  }
  [[nodiscard]] const stats::TimeSeries& egress_volume() const noexcept {
    return volume_out_;
  }
  /// Total (in+out) daily volume.
  [[nodiscard]] double daily_volume(net::Date d) const;
  /// Fig 11b: ingress/egress ratio for a day (0 if egress is 0).
  [[nodiscard]] double in_out_ratio(net::Date d) const;

  // --- Fig 12 / §7: connections -------------------------------------------
  struct ClassKey {
    EduClass cls;
    Direction dir;
    bool operator<(const ClassKey& o) const noexcept {
      return cls != o.cls ? cls < o.cls : dir < o.dir;
    }
  };

  /// Daily connection counts of one (class, direction).
  [[nodiscard]] std::vector<std::pair<net::Date, double>> daily_connections(
      EduClass cls, Direction dir) const;

  /// Daily totals by direction (incoming / outgoing / undetermined).
  [[nodiscard]] std::vector<std::pair<net::Date, double>> daily_connections(
      Direction dir) const;

  /// Ratio of median daily connections in `after` vs `before` for one
  /// (class, direction) -- the §7 growth numbers (web 1.7x, VPN 4.8x, ...).
  [[nodiscard]] double median_growth(EduClass cls, Direction dir,
                                     net::TimeRange before,
                                     net::TimeRange after) const;
  [[nodiscard]] double median_growth(Direction dir, net::TimeRange before,
                                     net::TimeRange after) const;
  /// All connections regardless of direction.
  [[nodiscard]] double median_growth_total(net::TimeRange before,
                                           net::TimeRange after) const;

  /// Fraction of connection flows with undetermined direction.
  [[nodiscard]] double undetermined_fraction() const noexcept;

 private:
  /// classify_port over pre-resolved columns: `service` is the FlowColumns
  /// (proto << 16 | port) key, `src`/`dst` the resolved endpoint ASes.
  [[nodiscard]] std::optional<EduClass> classify_cols(
      std::uint32_t service, std::uint32_t src,
      std::uint32_t dst) const noexcept;
  [[nodiscard]] static double median_of_range(
      const std::map<std::int64_t, double>& daily, net::TimeRange range);

  const AsView& view_;
  AsnSet universities_;
  AsnSet hypergiants_;
  DayFlagsCache day_cache_;
  stats::TimeSeries volume_in_;
  stats::TimeSeries volume_out_;
  std::map<ClassKey, std::map<std::int64_t, double>> connections_;
  std::map<Direction, std::map<std::int64_t, double>> connections_by_dir_;
  std::map<std::int64_t, double> connections_total_;
  double undetermined_ = 0.0;
  double determined_ = 0.0;
};

}  // namespace lockdown::analysis
