// Volume aggregation: flows -> calendar time series, the reduction behind
// Figs 1, 2a, 3, 11a. A VolumeAggregator consumes record batches with
// their shared FlowColumns (the ScanEngine Bundle shape) and may be gated
// by a compiled filter::CompiledFilter, whose plan computes the batch's
// pass mask in one columnar pass.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/flow_record.hpp"
#include "stats/timeseries.hpp"

namespace lockdown::filter {
class CompiledFilter;
struct FlowColumns;
}  // namespace lockdown::filter

namespace lockdown::analysis {

class VolumeAggregator {
 public:
  /// `plan` gates records (null means unfiltered); it must outlive the
  /// aggregator.
  explicit VolumeAggregator(stats::Bucket bucket,
                            const filter::CompiledFilter* plan = nullptr)
      : series_(bucket), plan_(plan) {}

  /// One plan mask pass over the batch, then a straight accumulation loop.
  /// `cols` must have been built over exactly `records` (and, when a
  /// compiled filter is set, with the trie it was compiled against).
  void add_batch(std::span<const flow::FlowRecord> records,
                 const filter::FlowColumns& cols);

  /// Fold a sibling aggregator (same bucket + filter configuration) into
  /// this one. Bin values are sums of exact integers, so merging
  /// per-thread instances reproduces single-threaded results bit-exactly.
  void merge(const VolumeAggregator& other);

  [[nodiscard]] const stats::TimeSeries& series() const noexcept { return series_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  stats::TimeSeries series_;
  const filter::CompiledFilter* plan_ = nullptr;
  std::vector<std::uint8_t> mask_;  ///< add_batch scratch
  std::uint64_t records_ = 0;
};

/// Fig 1 reduction: daily traffic averaged per week, normalized by the
/// value of `baseline_week` (the paper's calendar week 3). Input must be a
/// day- or finer-bucketed series; returns (paper week -> normalized value).
[[nodiscard]] std::vector<std::pair<unsigned, double>> weekly_normalized(
    const stats::TimeSeries& series, unsigned baseline_week = 3);

}  // namespace lockdown::analysis
