#include "analysis/table1_dsl.hpp"

#include <cctype>
#include <stdexcept>

namespace lockdown::analysis {

namespace {

[[nodiscard]] std::string class_slug(AppClass cls) {
  std::string out;
  for (const char* p = synth::to_string(cls); *p != '\0'; ++p) {
    const auto c = static_cast<unsigned char>(*p);
    if (std::isalnum(c) != 0) {
      out += static_cast<char>(std::tolower(c));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace

std::vector<MonitorDefinition> dsl_monitor_definitions(
    const AppClassifier& classifier) {
  // First-match priority across classes becomes a not-any-earlier-class
  // guard: object k matches exactly the records classify() assigns class k.
  std::vector<MonitorDefinition> defs;
  defs.reserve(classifier.runs().size());
  std::string guard;
  for (const AppClassifier::ClassRun& run : classifier.runs()) {
    for (const MonitorDefinition& def : defs) {
      if (def.app_class == run.app_class) {
        throw std::invalid_argument(
            "dsl_monitor_definitions: registry is not class-contiguous "
            "(class " + def.name + " reappears)");
      }
    }
    MonitorDefinition def;
    def.name = class_slug(run.app_class);
    def.app_class = run.app_class;
    def.expression = guard.empty()
                         ? run.expression
                         : "(" + run.expression + ") and not (" + guard + ")";
    defs.push_back(std::move(def));
    if (!guard.empty()) guard += " or ";
    guard += run.expression;
  }
  return defs;
}

void add_monitor_definitions(filter::MonitorSet& set,
                             const std::vector<MonitorDefinition>& defs) {
  for (const MonitorDefinition& def : defs) {
    set.add(def.name, def.expression);
  }
}

}  // namespace lockdown::analysis
