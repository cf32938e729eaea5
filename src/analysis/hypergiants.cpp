#include "analysis/hypergiants.hpp"

#include <stdexcept>

#include "filter/plan.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

void HypergiantAnalyzer::build_fast_lookup() {
  std::size_t slots = 16;
  while (slots < hypergiants_.size() * 4) slots *= 2;
  hg_table_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (const std::uint32_t asn : hypergiants_.values()) {
    if (asn == 0) {
      zero_is_member_ = true;
      continue;
    }
    std::size_t slot = (asn * 0x9e3779b1u) & mask;
    while (hg_table_[slot] != 0) slot = (slot + 1) & mask;
    hg_table_[slot] = asn;
  }
}

void HypergiantAnalyzer::add_batch(std::span<const flow::FlowRecord> records,
                                   const filter::FlowColumns& cols) {
  // Streams are time-sorted, so the Fig 4 (paper week, slice) key is
  // constant over long runs: one run spans a day's night (<9h), work
  // (9-17h) or evening (17-24h) block. Slice sums are flushed once per run
  // and per-hypergiant sums once per batch; all values are exact integers
  // (counter_to_double), so the grouped flush is bit-identical to a
  // record-at-a-time fold.
  server_accum_.clear();
  const std::size_t n = records.size();
  std::size_t i = 0;
  while (i < n) {
    const DayFlagsCache::Flags& day = day_cache_.at(records[i].first);
    const unsigned hour = DayFlagsCache::hour_of(day, records[i].first);
    const unsigned block_begin = hour < 9 ? 0 : hour < 17 ? 9 : 17;
    const unsigned block_end = hour < 9 ? 9 : hour < 17 ? 17 : 24;
    const std::int64_t run_begin =
        day.day_begin +
        static_cast<std::int64_t>(block_begin) * net::kSecondsPerHour;
    const std::int64_t run_end =
        day.day_begin +
        static_cast<std::int64_t>(block_end) * net::kSecondsPerHour;
    const bool plotted = block_begin != 0;  // Fig 4 covers 09:00-24:00 only
    const bool weekend = day.weekend;
    const unsigned week = day.paper_week;

    double hg_sum = 0.0;
    double other_sum = 0.0;
    for (; i < n; ++i) {
      const std::int64_t s = records[i].first.seconds();
      if (s < run_begin || s >= run_end) break;
      const std::uint32_t src = cols.src_as[i];
      const std::uint32_t dst = cols.dst_as[i];
      bool is_hg = true;
      std::uint32_t server = src;
      if (is_hypergiant(src)) {
        server = src;
      } else if (is_hypergiant(dst)) {
        server = dst;
      } else {
        is_hg = false;
      }

      const double bytes = util::counter_to_double(records[i].bytes);
      total_bytes_ += bytes;
      if (is_hg) {
        hg_bytes_ += bytes;
        server_accum_.add(server, bytes);
        hg_sum += bytes;
      } else {
        other_sum += bytes;
      }
    }

    if (plotted) {
      const bool evening = block_begin >= 17;
      const DaySlice slice =
          weekend
              ? (evening ? DaySlice::kWeekendEvening : DaySlice::kWeekendWork)
              : (evening ? DaySlice::kWorkdayEvening : DaySlice::kWorkdayWork);
      auto& cell = bytes_[Key{week, slice}];
      cell[0] += hg_sum;
      cell[1] += other_sum;
    }
  }
  for (const KeyAccumulator::Entry& e : server_accum_.entries()) {
    per_hg_bytes_[net::Asn(e.key)] += e.sum;
  }
}

void HypergiantAnalyzer::merge(const HypergiantAnalyzer& other) {
  for (const auto& [key, v] : other.bytes_) {
    auto& mine = bytes_[key];
    mine[0] += v[0];
    mine[1] += v[1];
  }
  for (const auto& [as, v] : other.per_hg_bytes_) per_hg_bytes_[as] += v;
  total_bytes_ += other.total_bytes_;
  hg_bytes_ += other.hg_bytes_;
}

std::vector<HypergiantAnalyzer::WeeklySlice> HypergiantAnalyzer::weekly_series(
    unsigned baseline_week) const {
  // Baseline per slice.
  std::array<double, 4> base_hg{}, base_other{};
  bool have_base = false;
  for (const auto& [key, v] : bytes_) {
    if (key.week == baseline_week) {
      base_hg[static_cast<std::size_t>(key.slice)] = v[0];
      base_other[static_cast<std::size_t>(key.slice)] = v[1];
      have_base = true;
    }
  }
  if (!have_base) {
    throw std::invalid_argument("HypergiantAnalyzer: baseline week has no data");
  }

  std::vector<WeeklySlice> out;
  for (const auto& [key, v] : bytes_) {
    const auto s = static_cast<std::size_t>(key.slice);
    if (base_hg[s] <= 0.0 || base_other[s] <= 0.0) continue;
    out.push_back(WeeklySlice{key.week, key.slice, v[0] / base_hg[s],
                              v[1] / base_other[s]});
  }
  return out;
}

double HypergiantAnalyzer::hypergiant_share() const noexcept {
  return total_bytes_ > 0.0 ? hg_bytes_ / total_bytes_ : 0.0;
}

}  // namespace lockdown::analysis
