// §3.4 / Fig 6: identifying remote-work-relevant ASes at the ISP
// (including transit traffic).
//
// Per AS we accumulate (a) total bytes and (b) bytes exchanged with the
// manually curated eyeball ASes ("residential" traffic), separately for a
// February base week and a March lockdown week, plus workday/weekend
// volumes for the ratio grouping. The figure plots, per AS, the normalized
// difference in mean volume against the normalized difference in mean
// residential volume.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "analysis/as_view.hpp"
#include "analysis/day_cache.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

/// Workday/weekend dominance groups (§3.4).
enum class WeekRatioGroup : std::uint8_t {
  kWorkdayDominated,
  kBalanced,
  kWeekendDominated,
};

[[nodiscard]] constexpr const char* to_string(WeekRatioGroup g) noexcept {
  switch (g) {
    case WeekRatioGroup::kWorkdayDominated: return "workday-dominated";
    case WeekRatioGroup::kBalanced: return "balanced";
    case WeekRatioGroup::kWeekendDominated: return "weekend-dominated";
  }
  return "?";
}

struct AsShift {
  net::Asn asn;
  /// Normalized difference of mean volume, (mar - feb) / max(mar, feb):
  /// bounded in [-1, 1] like the paper's axes.
  double total_shift = 0.0;
  double residential_shift = 0.0;
  double feb_bytes = 0.0;
  double mar_bytes = 0.0;
  WeekRatioGroup group = WeekRatioGroup::kBalanced;
};

class RemoteWorkAnalyzer {
 public:
  /// `eyeballs`: the curated residential broadband ASes. `local`: the ISP's
  /// own ASN(s), excluded from the per-AS population (they are the vantage
  /// point itself). Endpoint ASes are read from the batch's FlowColumns,
  /// which must be built against `view`'s routing snapshot.
  RemoteWorkAnalyzer(const AsView& /*view*/, AsnSet eyeballs, AsnSet local,
                     net::TimeRange feb_week, net::TimeRange mar_week)
      : eyeballs_(std::move(eyeballs)), local_(std::move(local)),
        feb_(feb_week), mar_(mar_week) {}

  /// Attributes each flow to its non-eyeball, non-local endpoint ASes.
  /// Endpoint ASes come pre-resolved from `cols` (built over exactly
  /// `records`), the weekend flag from the shared day cache.
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling analyzer (same eyeball/local sets and weeks) into this
  /// one; exact-integer byte accumulators merge order-independently.
  void merge(const RemoteWorkAnalyzer& other);

  /// Per-AS shifts, one entry per AS seen in either week.
  [[nodiscard]] std::vector<AsShift> shifts() const;

  /// Quadrant counts of the shift plane for workday-dominated ASes (the
  /// group the paper focuses on): (total up/down) x (residential up/down).
  struct QuadrantCounts {
    std::size_t up_up = 0;      // total up, residential up
    std::size_t up_down = 0;    // total up, residential down
    std::size_t down_up = 0;    // total down, residential up
    std::size_t down_down = 0;  // total down, residential down
  };
  [[nodiscard]] QuadrantCounts quadrants(
      WeekRatioGroup group = WeekRatioGroup::kWorkdayDominated) const;

  /// Correlation between total shift and residential shift within a group.
  [[nodiscard]] double shift_correlation(WeekRatioGroup group) const;

 private:
  struct Acc {
    double feb_total = 0, feb_res = 0;
    double mar_total = 0, mar_res = 0;
    double workday = 0, weekend = 0;
  };

  AsnSet eyeballs_;
  AsnSet local_;
  net::TimeRange feb_;
  net::TimeRange mar_;
  DayFlagsCache day_cache_;
  std::map<net::Asn, Acc> per_as_;
};

}  // namespace lockdown::analysis
