// Reference interpreter for the filter DSL: walks a compiled filter's
// retained AST record by record, with no plan, no fusion and no columns.
// The differential suites pin CompiledFilter's fused plan against it.
#pragma once

#include "filter/plan.hpp"
#include "flow/flow_record.hpp"

namespace lockdown::oracle {

/// Whether `r` satisfies `f`'s expression. Unannotated endpoint ASes
/// resolve against the trie `f` was compiled with, as in the plan.
[[nodiscard]] bool match_reference(const filter::CompiledFilter& f,
                                   const flow::FlowRecord& r);

}  // namespace lockdown::oracle
