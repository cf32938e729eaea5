// Table 1 re-expressed as monitoring objects: one monitoring-object
// definition per application class of an AppClassifier registry, so the
// generic filter/monitor layer reproduces the paper's §5 classification
// without any hardcoded class logic (DESIGN.md §12).
//
// Each class's union is the classifier's own lowering of its run of filters
// (AppClassifier::runs()), the expression the classifier's fused plan
// evaluates. The classifier resolves overlap by first-match priority;
// monitoring objects route every batch to every matching object. The
// generator bridges the two semantics with precedence guards: class k's
// expression is (union of class-k filters) and not (union of all earlier
// classes' filters). A synthesized-slice test pins the per-class flow/byte
// totals to the interpreted registry scan (oracle::classify_reference).
#pragma once

#include <string>
#include <vector>

#include "analysis/app_filter.hpp"
#include "filter/monitor.hpp"

namespace lockdown::analysis {

struct MonitorDefinition {
  std::string name;  ///< class-name slug ("web_conf", "vod", ...)
  AppClass app_class = AppClass::kOther;
  std::string expression;
};

/// One guarded DSL definition per class of `classifier`, in registry
/// order. Requires a class-contiguous registry (each class's filters form
/// one run, as table1() is laid out); throws std::invalid_argument
/// otherwise, because first-match priority then has no per-class guard
/// expression.
[[nodiscard]] std::vector<MonitorDefinition> dsl_monitor_definitions(
    const AppClassifier& classifier);

/// Register the definitions into `set` (typically built over the same
/// prefix trie the classifier's AsView resolves against).
void add_monitor_definitions(filter::MonitorSet& set,
                             const std::vector<MonitorDefinition>& defs);

}  // namespace lockdown::analysis
