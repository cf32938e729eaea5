#include "analysis/volume.hpp"

#include <map>
#include <stdexcept>

#include "filter/plan.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

void VolumeAggregator::add_batch(std::span<const flow::FlowRecord> records,
                                 const filter::FlowColumns& cols) {
  if (plan_ != nullptr) {
    mask_.resize(records.size());
    plan_->match_batch(records, mask_, cols);
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (mask_[i] == 0) continue;
      series_.add(records[i].first, util::counter_to_double(records[i].bytes));
      ++records_;
    }
    return;
  }
  for (const flow::FlowRecord& r : records) {
    series_.add(r.first, util::counter_to_double(r.bytes));
  }
  records_ += records.size();
}

void VolumeAggregator::merge(const VolumeAggregator& other) {
  series_.merge(other.series_);
  records_ += other.records_;
}

std::vector<std::pair<unsigned, double>> weekly_normalized(
    const stats::TimeSeries& series, unsigned baseline_week) {
  // Average the *daily* volumes within each paper week, so partial weeks at
  // the range edges do not bias the mean (the paper plots "daily traffic
  // averaged per week").
  const stats::TimeSeries daily = series.rebucket(stats::Bucket::kDay);

  std::map<unsigned, std::pair<double, unsigned>> weeks;  // week -> (sum, days)
  for (const auto& [ts, v] : daily.points()) {
    const unsigned week = ts.date().paper_week();
    auto& [sum, days] = weeks[week];
    sum += v;
    ++days;
  }

  const auto base_it = weeks.find(baseline_week);
  if (base_it == weeks.end() || base_it->second.first <= 0.0) {
    throw std::invalid_argument("weekly_normalized: baseline week missing or empty");
  }
  const double base =
      base_it->second.first / static_cast<double>(base_it->second.second);

  std::vector<std::pair<unsigned, double>> out;
  out.reserve(weeks.size());
  for (const auto& [week, acc] : weeks) {
    out.emplace_back(week, acc.first / static_cast<double>(acc.second) / base);
  }
  return out;
}

}  // namespace lockdown::analysis
