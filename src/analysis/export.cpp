#include "analysis/export.hpp"

#include "util/file.hpp"
#include "util/strings.hpp"

namespace lockdown::analysis {

util::Table timeseries_table(const stats::TimeSeries& series,
                             const std::string& value_name) {
  util::Table table({"timestamp", value_name});
  for (const auto& [ts, v] : series.points()) {
    table.add_row({ts.to_string(), util::format_fixed(v, 6)});
  }
  return table;
}

util::Table weekly_table(const std::vector<std::pair<unsigned, double>>& weekly,
                         const std::string& value_name) {
  util::Table table({"week", value_name});
  for (const auto& [week, value] : weekly) {
    table.add_row({std::to_string(week), util::format_fixed(value, 6)});
  }
  return table;
}

util::Table heatmap_table(const ClassHeatmap& heatmap, AppClass cls,
                          std::size_t stage_weeks) {
  std::vector<std::string> header = {"hour_slot", "base_normalized"};
  for (std::size_t w = 1; w <= stage_weeks; ++w) {
    header.push_back("diff_stage" + std::to_string(w) + "_pct");
  }
  util::Table table(std::move(header));

  const auto base = heatmap.base_normalized(cls);
  std::vector<std::vector<double>> diffs;
  for (std::size_t w = 1; w <= stage_weeks; ++w) {
    diffs.push_back(heatmap.diff_percent(cls, w));
  }
  auto cell = [](double v) {
    return v == ClassHeatmap::kMaskedHour ? std::string()
                                          : util::format_fixed(v, 3);
  };
  for (std::size_t slot = 0; slot < base.size(); ++slot) {
    std::vector<std::string> row = {std::to_string(slot), cell(base[slot])};
    for (const auto& d : diffs) row.push_back(cell(d[slot]));
    table.add_row(std::move(row));
  }
  return table;
}

util::Table vpn_profile_table(const std::vector<VpnAnalyzer::Profile>& profiles) {
  util::Table table({"method", "week", "hour", "workday", "weekend"});
  for (const auto& p : profiles) {
    const char* method = p.method == VpnMethod::kPort ? "port" : "domain";
    for (unsigned h = 0; h < 24; ++h) {
      table.add_row({method, std::to_string(p.week_index), std::to_string(h),
                     util::format_fixed(p.workday[h], 6),
                     util::format_fixed(p.weekend[h], 6)});
    }
  }
  return table;
}

std::string write_csv(const util::Table& table, const std::string& path) {
  const std::string csv = table.to_csv();
  return util::write_whole_file(path, csv.data(), csv.size());
}

}  // namespace lockdown::analysis
