// Compiled filters: CompiledFilter::compile() parses an expression and
// lowers the AST to the one-output case of the fused multi-output plan
// (fused.hpp, DESIGN.md §12), the same evaluator MonitorSet routes
// through. Single-record and batch matching both run that plan. The AST
// is retained for the test-only reference interpreter (tests/oracle/),
// which a 1M-flow differential fuzz pins the plan against.
//
// compile() also rejects degenerate filters with source-located errors:
// conjunctions that pin the same single-valued axis to disjoint sets
// ("src port 80 and src port 443"), tcp-flags terms under a proto term
// that excludes TCP, and unsatisfiable rate-threshold combinations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "filter/ast.hpp"
#include "filter/fused.hpp"
#include "flow/flow_record.hpp"
#include "net/asn.hpp"
#include "net/prefix_trie.hpp"

namespace lockdown::filter {

using AsnTrie = net::Ipv4PrefixTrie<net::Asn>;

/// AsView-style endpoint AS resolution: exporter annotation if present,
/// longest-prefix match against `trie` as fallback (v4 only), 0 = unknown.
[[nodiscard]] std::uint32_t resolve_endpoint_as(const AsnTrie* trie,
                                                net::Asn annotated,
                                                const net::IpAddress& addr);

/// Filter-independent per-record derived columns: the service key and the
/// resolved endpoint ASes. Matching many filters against the same batch
/// (the monitoring-object routing case) builds these ONCE and passes them
/// to every filter's match_batch instead of re-deriving them per filter.
struct FlowColumns {
  std::vector<std::uint32_t> service;  // (proto << 16) | service port
  std::vector<std::uint32_t> src_as;
  std::vector<std::uint32_t> dst_as;

  /// Populates all columns for `records`. `trie` must be the same routing
  /// snapshot the consuming filters were compiled against.
  void build(std::span<const flow::FlowRecord> records, const AsnTrie* trie);
};

class CompiledFilter {
 public:
  /// Parse + diagnose + lower. `trie` is the routing snapshot used to
  /// resolve endpoint ASes when the exporter annotation is absent (same
  /// fallback as analysis::AsView); it may be null when no asn terms are
  /// used -- asn terms then only see exporter annotations. The trie must
  /// outlive the filter. Throws FilterError.
  [[nodiscard]] static CompiledFilter compile(std::string_view source,
                                              const AsnTrie* trie = nullptr);

  CompiledFilter(CompiledFilter&&) noexcept = default;
  CompiledFilter& operator=(CompiledFilter&&) noexcept = default;

  /// Single-record match: the plan over a one-record span.
  [[nodiscard]] bool match(const flow::FlowRecord& r) const;

  /// Batch match: writes records.size() 0/1 results into `out` (which must
  /// be at least that large). Evaluated column-wise by the fused plan
  /// (fused.hpp): every distinct predicate becomes one bit column per
  /// 512-record chunk, keeping the op dispatch outside the record loop.
  /// Emits a filter.match_batch trace span. Safe to call concurrently (the
  /// plan is immutable after compile(); scratch is thread_local).
  void match_batch(std::span<const flow::FlowRecord> records,
                   std::span<std::uint8_t> out) const;

  /// Batch match with shared derived columns (see FlowColumns): the
  /// routing layer's form, which skips this filter's own column pass.
  /// `cols` must have been built over exactly `records` with the trie
  /// this filter was compiled against.
  void match_batch(std::span<const flow::FlowRecord> records,
                   std::span<std::uint8_t> out, const FlowColumns& cols) const;

  [[nodiscard]] std::vector<std::uint8_t> match_batch(
      std::span<const flow::FlowRecord> records) const {
    std::vector<std::uint8_t> out(records.size());
    match_batch(records, out);
    return out;
  }

  [[nodiscard]] const Expr& ast() const noexcept { return *ast_; }
  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  /// The routing snapshot asn terms resolve unannotated endpoints against.
  [[nodiscard]] const AsnTrie* trie() const noexcept { return trie_; }
  /// Distinct predicate and and/or nodes of the one-output plan.
  [[nodiscard]] std::size_t node_count() const noexcept {
    return plan_.node_count();
  }

 private:
  CompiledFilter() = default;

  /// match_batch without the trace span: builds the columns the plan reads.
  void evaluate(std::span<const flow::FlowRecord> records,
                std::span<std::uint8_t> out) const;

  std::string source_;
  ExprPtr ast_;
  const AsnTrie* trie_ = nullptr;
  /// This filter as the one output of a fused plan.
  FusedPlan plan_;
};

}  // namespace lockdown::filter
