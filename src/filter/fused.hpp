// Fused multi-output filter plan: the one batch evaluator of src/filter/
// (DESIGN.md §12). Any number of filter ASTs compile into a single DAG of
// predicate nodes; a batch is evaluated node by node, each node once per
// 512-record chunk into a bit column, and every output (one per filter)
// lands as one bit of a per-record mask word. CompiledFilter::match_batch
// is the one-output case; MonitorSet::route_batch is the many-output case,
// where it replaces one pass per monitoring object with one pass per batch.
//
// Sharing rules, applied as each output is added:
//   - nodes are hash-consed by structure (operands, children, negations --
//     never source positions), so a predicate written in several objects is
//     one node;
//   - an `or` chain is flattened into its disjuncts, and any earlier `or`
//     node whose disjuncts are all among them is reused as one child
//     (largest first). A first-match guard `not (U1 or ... or Uk-1)` thus
//     costs one node over the previous guard and the class union Uk-1;
//   - the disjuncts left over fuse as in the single-record plan: every
//     `proto P and port L` service rule into one per-protocol bitmap leaf,
//     every undirected asn term into one AS-set leaf;
//   - AS-set leaves share one interned ASN index: each endpoint AS is
//     probed once per record into a membership mask over every distinct AS
//     set of the plan, one 64-bit word per 64 sets.
// `not` costs nothing: it is a negation bit on the edge that uses a node.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "filter/ast.hpp"
#include "filter/predicates.hpp"
#include "flow/flow_record.hpp"

namespace lockdown::filter {

struct FlowColumns;

class FusedPlan {
 public:
  /// Lower `ast` as the next output (index outputs() before the call).
  /// The AST need not outlive the plan. Throws FilterError if the plan
  /// outgrows its 32-bit node ids.
  std::size_t add(const Expr& ast);

  [[nodiscard]] std::size_t outputs() const noexcept { return outputs_.size(); }
  /// 64-bit mask words per record: one per 64 outputs.
  [[nodiscard]] std::size_t mask_words() const noexcept {
    return (outputs_.size() + 63) / 64;
  }
  /// Distinct DAG nodes (leaves and and/or nodes) evaluated per chunk.
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Distinct AS sets behind the interned ASN index.
  [[nodiscard]] std::size_t asn_set_count() const noexcept {
    return asn_sets_.size();
  }

  /// Which FlowColumns the evaluator reads: the service key column, and
  /// the resolved endpoint-AS columns.
  [[nodiscard]] bool needs_service() const noexcept { return needs_service_; }
  [[nodiscard]] bool needs_as() const noexcept { return !asn_sets_.empty(); }

  /// Evaluate every output over `records`. `cols` must hold the columns
  /// needs_service()/needs_as() ask for, built over exactly `records`.
  /// Writes records.size() * mask_words() words: bit b of word j of
  /// record i (masks[i * mask_words() + j]) is output 64j+b's verdict.
  /// Safe to call concurrently (the plan is immutable between add()
  /// calls; scratch is thread_local).
  void evaluate(std::span<const flow::FlowRecord> records,
                const FlowColumns& cols, std::span<std::uint64_t> masks) const;

  /// One-output form (outputs() must be 1): records.size() 0/1 bytes.
  void evaluate(std::span<const flow::FlowRecord> records,
                const FlowColumns& cols, std::span<std::uint8_t> hits) const;

 private:
  enum class Op : std::uint8_t {
    kProto,    // a = proto_sets_ index
    kPort,     // dir, a = port_sets_ index
    kNet,      // dir, a = net_sets_ index
    kAsn,      // dir, a = AS-set id (bit a of the interned index masks)
    kFlagsAll, // a = mask; implies proto == TCP
    kFlagsAny, // a = mask; implies proto == TCP
    kRate,     // a = rates_ index
    kService,  // a = service_sets_ index (fused proto+port rules)
    kAnd,      // kids_[a, a + b)
    kOr,       // kids_[a, a + b)
  };

  struct Node {
    Op op = Op::kProto;
    Direction dir = Direction::kEither;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  /// An edge to a node: (node index << 1) | negated.
  using Ref = std::uint32_t;
  using Key = std::vector<std::uint64_t>;

  using ProtoBitmap = std::array<std::uint64_t, 4>;  // 256 bits

  /// Per-protocol service-port bitmaps, indexed by the service key's
  /// protocol byte; protocols without a rule point at an empty bitmap.
  struct ServiceSet {
    std::array<const detail::PortBitmap*, 256> per_proto;
  };

  /// An `or` node built from flattened disjuncts, for the reuse rule.
  struct OrNode {
    std::vector<std::uint32_t> atoms;  // sorted disjunct ids
    Ref ref = 0;
  };

  template <class Emit>
  void run(std::span<const flow::FlowRecord> records, const FlowColumns& cols,
           Emit&& emit) const;

  [[nodiscard]] Ref lower(const Expr& e);
  [[nodiscard]] Ref lower_or(const Expr& e);
  [[nodiscard]] Ref intern(Key key, Node node);
  /// Interns a leaf whose operand lives in a pool; `push` appends the
  /// operand and returns its index, and runs only for a new key.
  template <class Push>
  [[nodiscard]] Ref pooled_leaf(Key key, Op op, Direction dir, Push&& push);
  [[nodiscard]] Ref combine(Op op, std::vector<Ref> kids);
  [[nodiscard]] Ref leaf_service(
      const std::vector<std::pair<const ProtoPred*, const PortPred*>>& rules);
  [[nodiscard]] Ref leaf_asn(Direction dir, std::vector<std::uint32_t> asns);
  [[nodiscard]] std::uint32_t port_set(const detail::PortBitmap& bm);
  [[nodiscard]] std::uint32_t atom_id(const Expr& e);
  void rebuild_asn_index();
  [[nodiscard]] std::uint64_t asn_lookup(std::uint32_t asn) const noexcept;

  std::vector<Node> nodes_;
  std::vector<Ref> kids_;
  std::vector<Ref> outputs_;
  std::map<Key, Ref> interned_;
  std::map<Key, std::uint32_t> atoms_;
  std::vector<OrNode> or_nodes_;

  // Operand pools, indexed by node operands. Port bitmaps are shared by
  // content and never move (ServiceSet points into them).
  std::vector<ProtoBitmap> proto_sets_;
  std::vector<std::unique_ptr<detail::PortBitmap>> port_sets_;
  std::vector<detail::NetSet> net_sets_;
  std::vector<RatePred> rates_;
  std::vector<ServiceSet> service_sets_;
  std::vector<std::vector<std::uint32_t>> asn_sets_;  // sorted, distinct
  std::map<std::vector<std::uint32_t>, std::uint32_t> asn_set_ids_;

  /// Interned ASN index: an open-addressed table from every AS number in
  /// any set to its membership. With one membership word (<= 64 sets) the
  /// table holds that word itself, so a probe is the whole lookup; past
  /// that it holds the offset of a row of asn_words_ words in asn_rows_.
  /// An AS in no set reads 0 either way (row 0 is all-zero).
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> asn_index_;  // key,value
  std::uint32_t asn_index_cap_ = 0;  // slots - 1 (power-of-two table)
  std::vector<std::uint64_t> asn_rows_;
  std::uint32_t asn_words_ = 0;

  bool needs_service_ = false;
};

}  // namespace lockdown::filter
