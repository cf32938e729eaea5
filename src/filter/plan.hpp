// Compiled filters: CompiledFilter::compile() parses an expression and
// lowers the AST to a FilterPlan -- a flat decision-DAG step array in the
// DecodePlan/EncodePlan/flat-AppClassifier style (DESIGN.md §12). Each
// step evaluates one predicate against precompiled operand pools (65536-bit
// port bitmaps, merged sorted address intervals for CIDR lists, sorted ASN
// vectors) and jumps to its on_true/on_false successor; `not` costs
// nothing (target swap at compile time) and `and`/`or` short-circuit
// exactly like the tree. A fusion pass collapses disjunctions of
// `proto P and port L` service rules -- the shape every Table-1 class
// union takes -- into a single per-protocol-bitmap step, so a whole class
// union costs one service_port() call and one bitmap probe.
//
// Batch matching runs the filter as the one-output case of the fused
// multi-output plan (fused.hpp), the same evaluator MonitorSet routes
// through. The AST is retained and match_reference() walks it directly; a
// 1M-flow differential fuzz pins all three against each other, mirroring
// the classify()/classify_reference() pairing of the AppClassifier.
//
// compile() also rejects degenerate filters with source-located errors:
// conjunctions that pin the same single-valued axis to disjoint sets
// ("src port 80 and src port 443"), tcp-flags terms under a proto term
// that excludes TCP, and unsatisfiable rate-threshold combinations.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "filter/ast.hpp"
#include "filter/fused.hpp"
#include "filter/predicates.hpp"
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

  /// Compiled single-record match.
  [[nodiscard]] bool match(const flow::FlowRecord& r) const;

  /// Compiled batch match mirroring AppClassifier::classify_batch: writes
  /// records.size() 0/1 results into `out` (which must be at least that
  /// large). Evaluated column-wise by the fused plan (fused.hpp): every
  /// distinct predicate becomes one bit column per 512-record chunk,
  /// keeping the op dispatch outside the record loop. Emits a
  /// filter.match_batch trace span. Safe to call concurrently (the plan
  /// is immutable after compile(); scratch is thread_local).
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

  /// Tree-walking interpreter over the retained AST -- the semantic
  /// reference the plan is fuzz-pinned against.
  [[nodiscard]] bool match_reference(const flow::FlowRecord& r) const;

  [[nodiscard]] const Expr& ast() const noexcept { return *ast_; }
  [[nodiscard]] const std::string& source() const noexcept { return source_; }
  [[nodiscard]] std::size_t step_count() const noexcept { return steps_.size(); }

 private:
  CompiledFilter() = default;

  enum class Op : std::uint8_t {
    kProtoEq,      // payload = protocol number
    kProtoSet,     // payload = proto_sets_ index (256-bit mask)
    kPortEq,       // payload = (dir << 16) | port
    kPortSet,      // payload = (dir << 16) | port_sets_ index
    kNet,          // payload = (dir << 16) | net_sets_ index
    kAsnEq,        // payload = asn_eq_ index (holds dir + value)
    kAsnSet,       // payload = (dir << 16) | asn_sets_ index
    kFlagsAll,     // payload = mask; implies proto == TCP
    kFlagsAny,     // payload = mask; implies proto == TCP
    kRate,         // payload = rates_ index
    kServicePort,  // payload = service_sets_ index (fused proto+port rules)
  };

  struct Step {
    Op op = Op::kProtoEq;
    std::uint16_t on_true = 0;
    std::uint16_t on_false = 0;
    std::uint32_t payload = 0;
  };

  /// Terminal jump targets. Real step indices stay below kRejectTarget.
  static constexpr std::uint16_t kAcceptTarget = 0xffff;
  static constexpr std::uint16_t kRejectTarget = 0xfffe;

  using PortBitmap = detail::PortBitmap;
  using ProtoBitmap = std::array<std::uint64_t, 4>;  // 256 bits
  using NetSet = detail::NetSet;

  struct AsnEq {
    Direction dir = Direction::kEither;
    std::uint32_t asn = 0;
  };

  /// Fused `(proto P and port L) or (proto Q and port M) or ...` service
  /// rules: per-protocol service-port bitmaps, indexed by r.service_port().
  /// An entire class union (the Table-1 shape) evaluates as one step --
  /// one service_port() call and one bitmap probe -- instead of a walk
  /// through every rule's proto/port pair.
  struct ServicePortSet {
    std::array<std::int32_t, 256> per_proto;  // port_sets_ index or -1
  };

  /// Lazily resolved per-record values; one per match() call so the trie
  /// is walked at most once per endpoint and the service port is computed
  /// at most once however many steps consult them.
  struct AsnCache {
    static constexpr std::uint64_t kUnset = ~std::uint64_t{0};
    std::uint64_t src = kUnset;
    std::uint64_t dst = kUnset;
    std::uint32_t service = ~std::uint32_t{0};  // (proto << 16) | port
    // Membership masks over asn_sets_ (bit i = resolved AS is in set i),
    // valid when masks_set; computed at most once per record.
    std::uint64_t src_mask = 0;
    std::uint64_t dst_mask = 0;
    bool masks_set = false;
  };

  [[nodiscard]] std::uint32_t resolve_as(net::Asn annotated,
                                         const net::IpAddress& addr) const;
  [[nodiscard]] std::uint64_t index_mask(std::uint32_t asn) const noexcept;
  [[nodiscard]] std::uint32_t src_as(const flow::FlowRecord& r, AsnCache& c) const;
  [[nodiscard]] std::uint32_t dst_as(const flow::FlowRecord& r, AsnCache& c) const;

  [[nodiscard]] bool eval_step(const Step& s, const flow::FlowRecord& r,
                               AsnCache& cache) const;
  [[nodiscard]] bool run(const flow::FlowRecord& r) const;
  [[nodiscard]] bool eval_ref(const Expr& e, const flow::FlowRecord& r,
                              AsnCache& cache) const;

  /// Emit steps for `e` (right to left) so that control continues at
  /// `on_true`/`on_false`; returns the entry step index.
  [[nodiscard]] std::uint16_t emit(const Expr& e, std::uint16_t on_true,
                                   std::uint16_t on_false);
  [[nodiscard]] std::uint16_t push_step(const Expr& e, Op op,
                                        std::uint32_t payload,
                                        std::uint16_t on_true,
                                        std::uint16_t on_false);
  [[nodiscard]] std::uint32_t make_service_set(
      const std::vector<std::pair<const ProtoPred*, const PortPred*>>& rules);

  std::string source_;
  ExprPtr ast_;
  const AsnTrie* trie_ = nullptr;

  std::vector<Step> steps_;
  std::uint16_t entry_ = kRejectTarget;

  // Operand pools, indexed by step payloads.
  std::vector<ProtoBitmap> proto_sets_;
  std::vector<std::unique_ptr<PortBitmap>> port_sets_;
  std::vector<NetSet> net_sets_;
  std::vector<std::vector<std::uint32_t>> asn_sets_;  // sorted
  std::vector<AsnEq> asn_eq_;
  std::vector<RatePred> rates_;
  std::vector<ServicePortSet> service_sets_;

  /// Interned ASN membership index, built after emit() when the plan has
  /// at most 64 asn sets: an open-addressed hash from every distinct AS
  /// number appearing in any set to a bitmask of the sets containing it.
  /// An endpoint's AS then resolves to a set-membership mask with one
  /// probe per record, and each kAsnSet step is a single bit test instead
  /// of its own search -- the win that matters for guard chains which
  /// re-test the same endpoints against many hypergiant AS lists.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> asn_index_;  // key,mask
  std::uint32_t asn_index_cap_ = 0;  // slots - 1 (power-of-two table)
  bool use_asn_index_ = false;

  /// The batch form: this filter as the one output of a fused plan.
  FusedPlan batch_;
};

}  // namespace lockdown::filter
