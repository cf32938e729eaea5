// §5 / Table 1 / Fig 9: application-class traffic classification.
//
// "We apply a traffic classification based on a combination of transport
// port and traffic source/sink criteria. In total, we define more than 50
// combinations of transport port and AS criteria." Each filter can match
// on AS endpoints, on the service port, or on both; the first matching
// filter (in registry order: most specific first) assigns the class.
// The table1() registry reproduces Table 1's per-class filter/ASN/port
// counts exactly.
//
// The registry is classified through one filter::FusedPlan (DESIGN.md §9,
// §12): each maximal run of consecutive same-class filters is lowered to
// the filter DSL as the union of its filters and becomes one plan output.
// A record's class is the class of its lowest set output bit, which is
// exactly first-match over the registry in any order. The same lowering
// feeds dsl_monitor_definitions (table1_dsl.hpp), so the classifier and the
// collector-side Table-1 objects share one implementation. A differential
// fuzz test pins it against the interpreted registry scan
// (tests/oracle/classify_oracle.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/as_view.hpp"
#include "analysis/day_cache.hpp"
#include "filter/fused.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"
#include "synth/app_class.hpp"

namespace lockdown::analysis {

using synth::AppClass;

struct AppFilter {
  std::string name;
  AppClass target = AppClass::kOther;
  std::vector<net::Asn> asns;        ///< empty = no AS criterion
  std::vector<flow::PortKey> ports;  ///< empty = no port criterion

  /// A filter must constrain something.
  [[nodiscard]] bool valid() const noexcept {
    return !asns.empty() || !ports.empty();
  }
};

class AppClassifier {
 public:
  /// Validates (every filter constrains something, names are unique) and
  /// lowers the registry into its fused plan.
  explicit AppClassifier(std::vector<AppFilter> filters);

  /// The paper's filter registry (Table 1's nine classes).
  [[nodiscard]] static AppClassifier table1();

  /// The one batch entry: out[i] is the class of the first filter (registry
  /// order) that records[i] satisfies, nullopt if none does. `cols` must
  /// hold the service and endpoint-AS columns built over exactly `records`
  /// (filter::FlowColumns::build); `out` at least records.size() long.
  /// Safe to call concurrently (the plan is immutable; scratch is
  /// thread_local).
  void classify(std::span<const flow::FlowRecord> records,
                const filter::FlowColumns& cols,
                std::span<std::optional<AppClass>> out) const;

  /// Single-record adapter over the batch entry, resolving endpoint ASes
  /// through `view`.
  [[nodiscard]] std::optional<AppClass> classify(const flow::FlowRecord& r,
                                                 const AsView& view) const;

  [[nodiscard]] const std::vector<AppFilter>& filters() const noexcept {
    return filters_;
  }

  /// One maximal run of consecutive same-class filters: its class and the
  /// union of its filters in the filter DSL. Run k is plan output k.
  struct ClassRun {
    AppClass app_class = AppClass::kOther;
    std::string expression;
  };
  [[nodiscard]] const std::vector<ClassRun>& runs() const noexcept {
    return runs_;
  }

  /// Table 1 rows: per class, number of filters, distinct ASNs, distinct
  /// transport ports.
  struct ClassStats {
    AppClass app_class = AppClass::kOther;
    std::size_t filters = 0;
    std::size_t distinct_asns = 0;
    std::size_t distinct_ports = 0;
  };
  [[nodiscard]] std::vector<ClassStats> table_stats() const;

 private:
  std::vector<AppFilter> filters_;
  std::vector<ClassRun> runs_;
  filter::FusedPlan plan_;
};

/// Fig 9 heatmaps: per application class, hourly volume over a base week
/// and the differences of two lockdown-stage weeks against it. Weeks are
/// aligned on their first day (the paper's panels run Thu..Wed).
class ClassHeatmap {
 public:
  /// `weeks[0]` is the base week; all weeks must be 7 days. Records are
  /// attributed to endpoint ASes through the batch's FlowColumns, which
  /// must be built against `view`'s routing snapshot.
  ClassHeatmap(const AppClassifier& classifier, const AsView& view,
               std::vector<net::TimeRange> weeks);

  /// Classification reads the batch's pre-resolved service/AS columns
  /// (built over exactly `batch`), then deposits per (class, week, hour).
  void add_batch(std::span<const flow::FlowRecord> batch,
                 const filter::FlowColumns& cols);

  /// Fold a sibling heatmap (same classifier/weeks) into this one; hourly
  /// bins are exact-integer byte sums, so the merge is order-independent.
  void merge(const ClassHeatmap& other);

  [[nodiscard]] std::vector<AppClass> observed_classes() const;

  /// Base-week hourly volume of a class normalized to [0,1] by the class's
  /// min/max over *all* weeks, with early-morning hours (2-7 am) removed
  /// (set to -1 as a sentinel), per the paper's §5 transformation.
  [[nodiscard]] std::vector<double> base_normalized(AppClass cls) const;

  /// Difference of week `week_index` (>=1) vs the base week, as percent of
  /// the base value, clamped to [-100, +200] ("we cut off any growth above
  /// 200% and decrease below 100%"). Early-morning hours -> sentinel -999.
  [[nodiscard]] std::vector<double> diff_percent(AppClass cls,
                                                 std::size_t week_index) const;

  /// Mean diff (percent) over working hours (9-17) of workdays -- the
  /// quantitative summary used in EXPERIMENTS.md.
  [[nodiscard]] double working_hours_growth(AppClass cls,
                                            std::size_t week_index) const;

  static constexpr double kMaskedHour = -999.0;

 private:
  [[nodiscard]] static bool masked_hour(unsigned hour_of_day) noexcept {
    return hour_of_day >= 2 && hour_of_day < 7;
  }

  /// Index into weeks_ of the (first-in-constructor-order) week containing
  /// `t`, or weeks_.size(). Disjoint-segment index with a cached-segment
  /// fast path (WeekIndex) instead of the per-record linear scan; streams
  /// are near-sorted, so the cache hits almost always.
  [[nodiscard]] std::size_t week_of(net::Timestamp t) noexcept {
    return week_index_.lookup(t);
  }

  const AppClassifier& classifier_;
  std::vector<net::TimeRange> weeks_;
  WeekIndex week_index_;
  /// Weekend flags of the base week's 7 days, so working_hours_growth does
  /// not rebuild a net::Date per hour slot.
  std::array<bool, 7> base_day_weekend_{};
  /// Scratch for add_batch (ClassHeatmap is single-threaded, like every
  /// analysis aggregator; the scan engine gives each lane its own).
  std::vector<std::optional<AppClass>> batch_scratch_;
  // volume[class][week][hour-slot 0..167]
  std::map<AppClass, std::vector<std::array<double, 168>>> volume_;
};

}  // namespace lockdown::analysis
