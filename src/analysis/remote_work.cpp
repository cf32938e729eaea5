#include "analysis/remote_work.hpp"

#include "filter/plan.hpp"
#include "stats/ecdf.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

void RemoteWorkAnalyzer::add_batch(std::span<const flow::FlowRecord> records,
                                   const filter::FlowColumns& cols) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const flow::FlowRecord& r = records[i];
    const bool in_feb = feb_.contains(r.first);
    const bool in_mar = mar_.contains(r.first);
    if (!in_feb && !in_mar) continue;

    const std::uint32_t src = cols.src_as[i];
    const std::uint32_t dst = cols.dst_as[i];
    const double bytes = util::counter_to_double(r.bytes);
    const bool touches_eyeball =
        eyeballs_.contains(src) || eyeballs_.contains(dst);
    const bool weekend = day_cache_.at(r.first).weekend;

    // Attribute the flow to each non-eyeball, non-local endpoint AS: that
    // is the population whose provisioning the analysis reasons about.
    for (const std::uint32_t as : {src, dst}) {
      if (as == 0 || eyeballs_.contains(as) || local_.contains(as)) continue;
      Acc& acc = per_as_[net::Asn(as)];
      if (in_feb) {
        acc.feb_total += bytes;
        if (touches_eyeball) acc.feb_res += bytes;
      } else {
        acc.mar_total += bytes;
        if (touches_eyeball) acc.mar_res += bytes;
      }
      if (weekend) {
        acc.weekend += bytes;
      } else {
        acc.workday += bytes;
      }
    }
  }
}

void RemoteWorkAnalyzer::merge(const RemoteWorkAnalyzer& other) {
  for (const auto& [asn, acc] : other.per_as_) {
    Acc& mine = per_as_[asn];
    mine.feb_total += acc.feb_total;
    mine.feb_res += acc.feb_res;
    mine.mar_total += acc.mar_total;
    mine.mar_res += acc.mar_res;
    mine.workday += acc.workday;
    mine.weekend += acc.weekend;
  }
}

namespace {

/// Normalized difference in [-1, 1]: (b - a) / max(a, b); 0 when both are 0.
double norm_diff(double a, double b) noexcept {
  const double m = std::max(a, b);
  return m > 0.0 ? (b - a) / m : 0.0;
}

WeekRatioGroup ratio_group(double workday, double weekend) noexcept {
  // Workday volume is spread over 5 days, weekend over 2: compare per-day
  // rates. Dominance = one rate exceeding the other by 50%.
  const double wd_rate = workday / 5.0;
  const double we_rate = weekend / 2.0;
  if (wd_rate > 1.5 * we_rate) return WeekRatioGroup::kWorkdayDominated;
  if (we_rate > 1.5 * wd_rate) return WeekRatioGroup::kWeekendDominated;
  return WeekRatioGroup::kBalanced;
}

}  // namespace

std::vector<AsShift> RemoteWorkAnalyzer::shifts() const {
  std::vector<AsShift> out;
  out.reserve(per_as_.size());
  for (const auto& [asn, acc] : per_as_) {
    AsShift s;
    s.asn = asn;
    s.total_shift = norm_diff(acc.feb_total, acc.mar_total);
    s.residential_shift = norm_diff(acc.feb_res, acc.mar_res);
    s.feb_bytes = acc.feb_total;
    s.mar_bytes = acc.mar_total;
    s.group = ratio_group(acc.workday, acc.weekend);
    out.push_back(s);
  }
  return out;
}

RemoteWorkAnalyzer::QuadrantCounts RemoteWorkAnalyzer::quadrants(
    WeekRatioGroup group) const {
  QuadrantCounts q;
  for (const AsShift& s : shifts()) {
    if (s.group != group) continue;
    if (s.total_shift >= 0 && s.residential_shift >= 0) ++q.up_up;
    if (s.total_shift >= 0 && s.residential_shift < 0) ++q.up_down;
    if (s.total_shift < 0 && s.residential_shift >= 0) ++q.down_up;
    if (s.total_shift < 0 && s.residential_shift < 0) ++q.down_down;
  }
  return q;
}

double RemoteWorkAnalyzer::shift_correlation(WeekRatioGroup group) const {
  std::vector<double> xs, ys;
  for (const AsShift& s : shifts()) {
    if (s.group != group) continue;
    xs.push_back(s.total_shift);
    ys.push_back(s.residential_shift);
  }
  return stats::pearson(xs, ys);
}

}  // namespace lockdown::analysis
