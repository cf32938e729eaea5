// §5 / Fig 8: per-hour activity of one application class -- traffic volume
// and distinct IP addresses (a proxy for the order of households) -- with
// daily min/avg/max envelopes, normalized to the observed minimum.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "analysis/app_filter.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"
#include "stats/timeseries.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

class ClassActivityTracker {
 public:
  /// Classification reads the batch's FlowColumns, which must be built
  /// against `view`'s routing snapshot.
  ClassActivityTracker(const AppClassifier& classifier, const AsView& /*view*/,
                       AppClass cls)
      : classifier_(classifier), cls_(cls) {}

  /// Classification reads the batch's pre-resolved service/AS columns
  /// (`cols`, built over exactly `records`).
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling tracker (same classifier/class) into this one. Byte
  /// bins are exact-integer sums and IP sets union, so the result is
  /// independent of how records were partitioned.
  void merge(const ClassActivityTracker& other);

  struct HourPoint {
    net::Timestamp hour;
    double bytes = 0.0;
    std::size_t unique_ips = 0;
  };
  /// Chronological per-hour activity.
  [[nodiscard]] std::vector<HourPoint> hourly() const;

  struct DayEnvelope {
    net::Date date;
    double min = 0.0, avg = 0.0, max = 0.0;
  };
  /// Daily envelopes of one metric, normalized to the global minimum hourly
  /// value of that metric (the paper normalizes Fig 8 to the minimum).
  [[nodiscard]] std::vector<DayEnvelope> daily_volume_envelope() const;
  [[nodiscard]] std::vector<DayEnvelope> daily_ip_envelope() const;

 private:
  struct HourAcc {
    double bytes = 0.0;
    std::unordered_set<std::size_t> ips;  // hashed addresses
  };

  [[nodiscard]] std::vector<DayEnvelope> envelope(
      const std::function<double(const HourAcc&)>& metric) const;

  const AppClassifier& classifier_;
  AppClass cls_;
  std::map<std::int64_t, HourAcc> hours_;
  std::vector<std::optional<AppClass>> batch_scratch_;
};

}  // namespace lockdown::analysis
