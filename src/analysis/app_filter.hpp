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
// classify() runs on a compiled form of the registry (DESIGN.md §9): a
// per-protocol port -> first-matching-filter table, a sorted ASN -> filter
// vector and a small combined (AS + port) index, all carrying the *lowest*
// matching filter index so first-match priority is preserved exactly. A
// differential fuzz test pins it against the interpreted registry scan
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
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"
#include "synth/app_class.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

using synth::AppClass;

/// Caller-owned memo table for AppClassifier::classify_columns: record
/// streams repeat a small set of (service, src AS, dst AS) triples, so the
/// compiled lookup (port table + four binary searches) runs once per
/// distinct triple instead of once per record. Direct-mapped: a colliding
/// triple simply recomputes and overwrites. Owned by the aggregator (one
/// per scan lane), never by the shared immutable classifier.
class ClassifyCache {
 public:
  ClassifyCache() : slots_(kSlots) {}

 private:
  friend class AppClassifier;
  static constexpr std::size_t kSlots = 4096;  // power of two
  struct Slot {
    std::uint32_t service = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t index = 0;
    bool valid = false;
  };
  std::vector<Slot> slots_;
};

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
  /// Validates (every filter constrains something, names are unique,
  /// registry fits the compiled index) and compiles the flat tables.
  explicit AppClassifier(std::vector<AppFilter> filters);

  /// The paper's filter registry (Table 1's nine classes).
  [[nodiscard]] static AppClassifier table1();

  /// First matching filter's class in registry order; nullopt if nothing
  /// matches. Flat-table lookup: O(1) on the port axis plus two binary
  /// searches on the AS axis.
  [[nodiscard]] std::optional<AppClass> classify(const flow::FlowRecord& r,
                                                 const AsView& view) const;

  /// Columnar batch classification over pre-resolved per-batch columns
  /// (filter::FlowColumns layout): `service` is the (proto << 16 | port)
  /// key column, `src_as`/`dst_as` the resolved endpoint AS columns, each
  /// `n` elements. Same results as classify() over the same records, but
  /// skips the per-record service_port()/trie work, and repeated
  /// (service, src AS, dst AS) triples hit the caller-owned memo `cache`
  /// instead of re-running the compiled lookup.
  void classify_columns(std::size_t n, const std::uint32_t* service,
                        const std::uint32_t* src_as,
                        const std::uint32_t* dst_as,
                        std::span<std::optional<AppClass>> out,
                        ClassifyCache& cache) const;

  [[nodiscard]] const std::vector<AppFilter>& filters() const noexcept {
    return filters_;
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
  /// Sentinel for "no filter matches" in the compiled tables. Filter
  /// indices are uint16; the constructor rejects registries that large.
  static constexpr std::uint16_t kNoFilter = 0xffff;

  void compile_tables();
  /// Lowest-index matching filter, or kNoFilter.
  [[nodiscard]] std::uint16_t match_index(net::Asn src, net::Asn dst,
                                          flow::PortKey port) const;

  std::vector<AppFilter> filters_;

  // --- compiled form (built once by the constructor) ----------------------
  // port_first_[proto][port]: lowest index of a *port-only* filter matching
  // (proto, port); proto 0 = TCP, 1 = UDP. Port-only filters naming other
  // protocols (GRE/ESP/ICMP carry no port) land in other_port_filters_ and
  // are scanned only for such records.
  std::array<std::vector<std::uint16_t>, 2> port_first_;
  std::vector<std::uint16_t> other_port_filters_;
  // Sorted (asn, lowest index of an *asn-only* filter naming it).
  std::vector<std::pair<std::uint32_t, std::uint16_t>> asn_first_;
  // Combined (AS + port) filters, one entry per (asn, filter), sorted by
  // asn; the port criterion is checked against the filter's own port list.
  struct CombinedEntry {
    std::uint32_t asn;
    std::uint16_t index;
  };
  std::vector<CombinedEntry> combined_;
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
  /// Memo for add_batch's classification.
  ClassifyCache classify_cache_;
  // volume[class][week][hour-slot 0..167]
  std::map<AppClass, std::vector<std::array<double, 168>>> volume_;
};

}  // namespace lockdown::analysis
