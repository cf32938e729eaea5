#include "analysis/ports.hpp"

#include <algorithm>

#include "filter/plan.hpp"
#include "synth/timeline.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

using flow::PortKey;

PortAnalyzer::PortAnalyzer(std::vector<net::TimeRange> weeks,
                           bool holidays_as_weekend)
    : weeks_(std::move(weeks)), holidays_as_weekend_(holidays_as_weekend),
      week_index_(weeks_) {}

void PortAnalyzer::add_batch(std::span<const flow::FlowRecord> records,
                             const filter::FlowColumns& cols) {
  // Streams are time-sorted, so (week, weekend, hour) is constant over long
  // runs. Per-service byte sums are gathered per run in a small scratch
  // table and flushed into the ordered maps once per (run, service) instead
  // of twice per record. All sums are exact integers (counter_to_double),
  // so the grouped flush is bit-identical to a record-at-a-time fold.
  const std::size_t n = records.size();
  std::size_t i = 0;
  while (i < n) {
    const std::size_t week_index = week_index_.lookup(records[i].first);
    if (week_index == weeks_.size()) {
      ++i;
      continue;
    }
    const DayFlagsCache::Flags& day = day_cache_.at(records[i].first);
    const bool weekend =
        holidays_as_weekend_ ? day.weekend_or_holiday : day.weekend;
    const unsigned hour = DayFlagsCache::hour_of(day, records[i].first);
    const std::int64_t hour_begin =
        day.day_begin + static_cast<std::int64_t>(hour) * net::kSecondsPerHour;
    const std::int64_t hour_end = hour_begin + net::kSecondsPerHour;

    run_accum_.clear();
    for (; i < n; ++i) {
      const std::int64_t s = records[i].first.seconds();
      if (s < hour_begin || s >= hour_end) break;
      // Analysis weeks need not be hour-aligned, so re-check membership;
      // the WeekIndex cached-segment fast path makes this two comparisons.
      if (week_index_.lookup(records[i].first) != week_index) break;
      run_accum_.add(cols.service[i], util::counter_to_double(records[i].bytes));
    }

    for (const KeyAccumulator::Entry& e : run_accum_.entries()) {
      const PortKey port{static_cast<flow::IpProtocol>(e.key >> 16),
                         static_cast<std::uint16_t>(e.key & 0xffff)};
      bytes_[{week_index, port, weekend, hour}] += e.sum;
      totals_[port] += e.sum;
      all_bytes_ += e.sum;
      if (port.proto == flow::IpProtocol::kTcp &&
          (port.port == 80 || port.port == 443)) {
        web_bytes_ += e.sum;
      }
    }
  }
}

void PortAnalyzer::merge(const PortAnalyzer& other) {
  for (const auto& [key, v] : other.bytes_) bytes_[key] += v;
  for (const auto& [port, v] : other.totals_) totals_[port] += v;
  all_bytes_ += other.all_bytes_;
  web_bytes_ += other.web_bytes_;
}

std::vector<PortKey> PortAnalyzer::top_ports(std::size_t top_n,
                                             bool skip_web) const {
  std::vector<std::pair<PortKey, double>> ranked(totals_.begin(), totals_.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<PortKey> out;
  for (const auto& [port, bytes] : ranked) {
    if (skip_web && port.proto == flow::IpProtocol::kTcp &&
        (port.port == 80 || port.port == 443)) {
      continue;
    }
    out.push_back(port);
    if (out.size() == top_n) break;
  }
  return out;
}

std::vector<PortAnalyzer::PortProfile> PortAnalyzer::profiles(
    const std::vector<PortKey>& ports) const {
  // Count workdays/weekend days per week for averaging.
  std::vector<std::array<unsigned, 2>> day_counts(weeks_.size(), {0, 0});
  for (std::size_t w = 0; w < weeks_.size(); ++w) {
    for (net::Timestamp t = weeks_[w].begin.floor_day(); t < weeks_[w].end;
         t = t.plus(net::kSecondsPerDay)) {
      const net::Date d = t.date();
      const bool weekend =
          d.is_weekend_day() ||
          (holidays_as_weekend_ && synth::is_holiday_2020(d));
      ++day_counts[w][weekend ? 1 : 0];
    }
  }

  std::vector<PortProfile> out;
  for (const PortKey& port : ports) {
    // Find the port's maximum hourly average across all weeks for the
    // shared normalization.
    double max_avg = 0.0;
    std::vector<PortProfile> port_profiles;
    for (std::size_t w = 0; w < weeks_.size(); ++w) {
      PortProfile p;
      p.port = port;
      p.week_index = w;
      for (unsigned h = 0; h < 24; ++h) {
        for (const bool weekend : {false, true}) {
          const auto it = bytes_.find({w, port, weekend, h});
          const unsigned days = day_counts[w][weekend ? 1 : 0];
          const double avg =
              (it == bytes_.end() || days == 0)
                  ? 0.0
                  : it->second / static_cast<double>(days);
          (weekend ? p.weekend : p.workday)[h] = avg;
          max_avg = std::max(max_avg, avg);
        }
      }
      port_profiles.push_back(p);
    }
    if (max_avg > 0.0) {
      for (PortProfile& p : port_profiles) {
        for (unsigned h = 0; h < 24; ++h) {
          p.workday[h] /= max_avg;
          p.weekend[h] /= max_avg;
        }
      }
    }
    out.insert(out.end(), port_profiles.begin(), port_profiles.end());
  }
  return out;
}

double PortAnalyzer::web_share() const noexcept {
  return all_bytes_ > 0.0 ? web_bytes_ / all_bytes_ : 0.0;
}

}  // namespace lockdown::analysis
