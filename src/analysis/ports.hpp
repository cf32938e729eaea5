// §4 / Fig 7: per-port diurnal traffic profiles. For each analysis week,
// volume is kept per (service port, hour-of-day, workday/weekend); the
// figure plots the top 3-12 ports (TCP/443 and TCP/80 are omitted for
// readability) normalized across all weeks.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "analysis/day_cache.hpp"
#include "analysis/run_accum.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

class PortAnalyzer {
 public:
  /// `weeks`: the analysis weeks (e.g. Feb/Mar/Apr weeks of Fig 7). Flows
  /// outside all weeks are ignored. Holiday days count as weekends when
  /// `holidays_as_weekend` (the ISP treats Easter as weekend days, §4).
  explicit PortAnalyzer(std::vector<net::TimeRange> weeks,
                        bool holidays_as_weekend = true);

  /// Service keys come from `cols` (built once per batch for all
  /// consumers, over exactly `records`) and the calendar facts from the
  /// cached per-day/week lookups.
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling analyzer (same weeks + holiday configuration) into
  /// this one; exact-integer bins make the merge order-independent.
  void merge(const PortAnalyzer& other);

  /// Ports ranked by total volume over all weeks. `skip_web` drops TCP/80
  /// and TCP/443 (the paper omits them); `top_n` bounds the result.
  [[nodiscard]] std::vector<flow::PortKey> top_ports(std::size_t top_n,
                                                     bool skip_web = true) const;

  /// Hourly profile of one port in one week: 24 workday values followed by
  /// 24 weekend values, each the average bytes for that hour-of-day,
  /// normalized by the port's maximum across *all* weeks (so growth across
  /// weeks is visible, like Fig 7's shared scale).
  struct PortProfile {
    flow::PortKey port;
    std::size_t week_index = 0;
    std::array<double, 24> workday{};
    std::array<double, 24> weekend{};
  };
  [[nodiscard]] std::vector<PortProfile> profiles(
      const std::vector<flow::PortKey>& ports) const;

  /// Total bytes share of TCP/443 + TCP/80 (the paper: ~80% at the ISP,
  /// ~60% at the IXP).
  [[nodiscard]] double web_share() const noexcept;

 private:
  struct Cell {
    double bytes = 0.0;
    unsigned days = 0;  // populated lazily at query time
  };

  std::vector<net::TimeRange> weeks_;
  bool holidays_as_weekend_;
  WeekIndex week_index_;
  DayFlagsCache day_cache_;
  /// Scratch for add_batch's run-grouped per-service sums.
  KeyAccumulator run_accum_;
  // key: (week index, port, weekend?, hour)
  std::map<std::tuple<std::size_t, flow::PortKey, bool, unsigned>, double> bytes_;
  std::map<flow::PortKey, double> totals_;
  double all_bytes_ = 0.0;
  double web_bytes_ = 0.0;
};

}  // namespace lockdown::analysis
