#include "analysis/class_activity.hpp"

#include "filter/plan.hpp"
#include "net/ip.hpp"
#include "stats/timeseries.hpp"
#include "util/arith.hpp"

namespace lockdown::analysis {

void ClassActivityTracker::add_batch(std::span<const flow::FlowRecord> records,
                                     const filter::FlowColumns& cols) {
  batch_scratch_.resize(records.size());
  classifier_.classify(records, cols, batch_scratch_);
  const net::IpAddressHash hash;
  // Cache the current hour's accumulator locally: near-sorted streams keep
  // hitting the same std::map node, and map nodes are pointer-stable.
  std::int64_t cached_hour = 0;
  HourAcc* cached_acc = nullptr;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!batch_scratch_[i] || *batch_scratch_[i] != cls_) continue;
    const flow::FlowRecord& r = records[i];
    const std::int64_t hour = r.first.floor_hour().seconds();
    if (cached_acc == nullptr || hour != cached_hour) {
      cached_acc = &hours_[hour];
      cached_hour = hour;
    }
    cached_acc->bytes += util::counter_to_double(r.bytes);
    cached_acc->ips.insert(hash(r.src_addr));
    cached_acc->ips.insert(hash(r.dst_addr));
  }
}

void ClassActivityTracker::merge(const ClassActivityTracker& other) {
  for (const auto& [hour, acc] : other.hours_) {
    HourAcc& mine = hours_[hour];
    mine.bytes += acc.bytes;
    mine.ips.insert(acc.ips.begin(), acc.ips.end());
  }
}

std::vector<ClassActivityTracker::HourPoint> ClassActivityTracker::hourly() const {
  std::vector<HourPoint> out;
  out.reserve(hours_.size());
  for (const auto& [hour, acc] : hours_) {
    out.push_back(HourPoint{net::Timestamp(hour), acc.bytes, acc.ips.size()});
  }
  return out;
}

std::vector<ClassActivityTracker::DayEnvelope> ClassActivityTracker::envelope(
    const std::function<double(const HourAcc&)>& metric) const {
  // Smallest *positive* hourly value for normalization (Fig 8's y-axis is
  // "x minimum"): an idle zero hour must not collapse the divisor to the
  // 1.0 fallback and silently turn the envelope into raw values. Only a
  // series with no positive hour at all falls back to 1.0.
  double global_min = 0.0;
  for (const auto& [hour, acc] : hours_) {
    const double v = metric(acc);
    if (v > 0.0 && (global_min <= 0.0 || v < global_min)) global_min = v;
  }
  if (global_min <= 0.0) global_min = 1.0;

  std::map<std::int64_t, stats::RunningStats> days;
  for (const auto& [hour, acc] : hours_) {
    days[net::Timestamp(hour).floor_day().seconds()].add(metric(acc) / global_min);
  }

  std::vector<DayEnvelope> out;
  out.reserve(days.size());
  for (const auto& [day, rs] : days) {
    out.push_back(DayEnvelope{net::Timestamp(day).date(), rs.min(), rs.mean(),
                              rs.max()});
  }
  return out;
}

std::vector<ClassActivityTracker::DayEnvelope>
ClassActivityTracker::daily_volume_envelope() const {
  return envelope([](const HourAcc& a) { return a.bytes; });
}

std::vector<ClassActivityTracker::DayEnvelope>
ClassActivityTracker::daily_ip_envelope() const {
  return envelope([](const HourAcc& a) { return static_cast<double>(a.ips.size()); });
}

}  // namespace lockdown::analysis
