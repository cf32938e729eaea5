// CSV export of analysis results: the bridge from this library to whatever
// plotting stack regenerates the paper's figures graphically. Writers are
// pure (TimeSeries/heatmap in, util::Table out) so they are testable
// without touching the filesystem; `write_csv` is the thin I/O shim.
#pragma once

#include <string>

#include "analysis/app_filter.hpp"
#include "analysis/vpn.hpp"
#include "stats/timeseries.hpp"
#include "util/table.hpp"

namespace lockdown::analysis {

/// (timestamp, value) rows of a TimeSeries; timestamps in ISO form.
[[nodiscard]] util::Table timeseries_table(const stats::TimeSeries& series,
                                           const std::string& value_name = "value");

/// Weekly normalized series (Fig 1 style): week, value.
[[nodiscard]] util::Table weekly_table(
    const std::vector<std::pair<unsigned, double>>& weekly,
    const std::string& value_name = "normalized");

/// Fig 9 heatmap for one class: hour-slot, base, diff per stage week.
/// Masked early-morning hours are emitted as empty fields.
[[nodiscard]] util::Table heatmap_table(const ClassHeatmap& heatmap,
                                        AppClass cls, std::size_t stage_weeks);

/// Fig 10 profiles: hour, workday/weekend value per (method, week).
[[nodiscard]] util::Table vpn_profile_table(
    const std::vector<VpnAnalyzer::Profile>& profiles);

/// Write any table as CSV. Returns an empty string on success, else the
/// strerror of the failed open, write, flush or close.
[[nodiscard]] std::string write_csv(const util::Table& table, const std::string& path);

}  // namespace lockdown::analysis
