// Hypergiant vs other-AS decomposition (§3.2, Fig 4, Table 2).
//
// Fig 4 plots, per calendar week, the traffic of each AS group in four
// time-of-day/day-type slices (workday/weekend x 9:00-16:59 / 17:00-24:00),
// normalized by that slice's value in a baseline week. Table 2's headline
// is the hypergiants' ~75% share of traffic delivered to the ISP's users.
#pragma once

#include <array>
#include <map>
#include <span>
#include <vector>

#include "analysis/as_view.hpp"
#include "analysis/day_cache.hpp"
#include "analysis/run_accum.hpp"
#include "flow/flow_record.hpp"
#include "net/civil_time.hpp"

namespace lockdown::filter {
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

enum class DaySlice : std::uint8_t {
  kWorkdayWork = 0,     // workday 09:00-16:59
  kWorkdayEvening = 1,  // workday 17:00-24:00
  kWeekendWork = 2,     // weekend 09:00-16:59
  kWeekendEvening = 3,  // weekend 17:00-24:00
};

[[nodiscard]] constexpr const char* to_string(DaySlice s) noexcept {
  switch (s) {
    case DaySlice::kWorkdayWork: return "Workday 09:00-16:59";
    case DaySlice::kWorkdayEvening: return "Workday 17:00-24:00";
    case DaySlice::kWeekendWork: return "Weekend 09:00-16:59";
    case DaySlice::kWeekendEvening: return "Weekend 17:00-24:00";
  }
  return "?";
}

class HypergiantAnalyzer {
 public:
  /// Endpoint ASes are read from the batch's FlowColumns, which must be
  /// built against `view`'s routing snapshot.
  HypergiantAnalyzer(const AsView& /*view*/, AsnSet hypergiants)
      : hypergiants_(std::move(hypergiants)) {
    build_fast_lookup();
  }

  /// Attributes each flow's bytes to the serving AS group (the hypergiant
  /// endpoint if any, source first; otherwise the source side --
  /// deliveries are server-sourced in NetFlow). Endpoint ASes come
  /// pre-resolved from `cols` (built once per batch, over exactly
  /// `records`, for all consumers).
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling analyzer (same hypergiant list) into this one;
  /// exact-integer bins make the merge order-independent.
  void merge(const HypergiantAnalyzer& other);

  /// Fig 4 series: per paper week, per slice, traffic normalized by
  /// `baseline_week`. Missing slices yield no entry.
  struct WeeklySlice {
    unsigned week = 0;
    DaySlice slice = DaySlice::kWorkdayWork;
    double hypergiant = 0.0;  ///< normalized
    double other = 0.0;       ///< normalized
  };
  [[nodiscard]] std::vector<WeeklySlice> weekly_series(
      unsigned baseline_week = 3) const;

  /// Table 2 headline: fraction of total bytes served by hypergiants.
  [[nodiscard]] double hypergiant_share() const noexcept;

  /// Per-hypergiant byte totals (Table 2 rows).
  [[nodiscard]] std::map<net::Asn, double> per_hypergiant_bytes() const {
    return per_hg_bytes_;
  }

 private:
  struct Key {
    unsigned week;
    DaySlice slice;
    bool operator<(const Key& o) const noexcept {
      return week != o.week ? week < o.week : slice < o.slice;
    }
  };

  void build_fast_lookup();

  /// Flat open-address membership probe over hg_table_ -- same answer as
  /// hypergiants_.contains(), one load on most probes instead of a binary
  /// search. ASN 0 (unresolved endpoint) is the empty-slot sentinel and is
  /// never a hypergiant.
  [[nodiscard]] bool is_hypergiant(std::uint32_t asn) const noexcept {
    if (asn == 0) return zero_is_member_;
    const std::size_t mask = hg_table_.size() - 1;
    std::size_t slot = (asn * 0x9e3779b1u) & mask;
    while (true) {
      const std::uint32_t v = hg_table_[slot];
      if (v == asn) return true;
      if (v == 0) return false;
      slot = (slot + 1) & mask;
    }
  }

  AsnSet hypergiants_;
  DayFlagsCache day_cache_;
  /// Scratch for add_batch's per-batch per-hypergiant sums.
  KeyAccumulator server_accum_;
  /// Open-address table of hypergiant ASNs (power-of-two size, 0 = empty).
  std::vector<std::uint32_t> hg_table_;
  /// Degenerate case: ASN 0 listed as a member (0 doubles as the empty
  /// sentinel above, so it gets its own flag).
  bool zero_is_member_ = false;
  std::map<Key, std::array<double, 2>> bytes_;  // [hypergiant, other]
  std::map<net::Asn, double> per_hg_bytes_;
  double total_bytes_ = 0.0;
  double hg_bytes_ = 0.0;
};

}  // namespace lockdown::analysis
