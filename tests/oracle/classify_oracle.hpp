// Reference classifier for the Table-1 application registry: the plain
// first-match scan over the filter list that AppClassifier's flat tables
// compile away. The differential suites and the classifier benches' reference
// arms pin the compiled lookup against it.
#pragma once

#include <optional>

#include "analysis/app_filter.hpp"
#include "analysis/as_view.hpp"
#include "flow/flow_record.hpp"

namespace lockdown::oracle {

/// The class of the first filter of `classifier` (registry order) that
/// `r` satisfies; nullopt if none does.
[[nodiscard]] std::optional<analysis::AppClass> classify_reference(
    const analysis::AppClassifier& classifier, const flow::FlowRecord& r,
    const analysis::AsView& view);

}  // namespace lockdown::oracle
