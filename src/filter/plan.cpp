#include "filter/plan.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "filter/parser.hpp"
#include "obs/trace.hpp"

namespace lockdown::filter {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

constexpr std::uint8_t kTcpProto = 6;

using detail::eval_rate;
using detail::flatten_or;
using detail::service_rule;

// ---- compile-time degeneracy diagnostics ----------------------------------

[[nodiscard]] std::string axis_name(std::string_view term, Direction dir) {
  const char* d = to_string(dir);
  return d[0] == '\0' ? std::string(term)
                      : std::string(d) + " " + std::string(term);
}

[[noreturn]] void always_false(const std::string& axis, const Expr& a,
                               const Expr& b, std::string_view what) {
  throw FilterError(b.loc, "always-false conjunction: '" + axis +
                               "' terms at " + a.loc.to_string() + " and " +
                               b.loc.to_string() + " share no " +
                               std::string(what));
}

[[nodiscard]] bool ranges_intersect(
    const std::vector<std::pair<std::uint16_t, std::uint16_t>>& a,
    const std::vector<std::pair<std::uint16_t, std::uint16_t>>& b) noexcept {
  for (const auto& [al, ah] : a) {
    for (const auto& [bl, bh] : b) {
      if (al <= bh && bl <= ah) return true;
    }
  }
  return false;
}

[[nodiscard]] bool nets_intersect(const NetPred& a, const NetPred& b) noexcept {
  for (const auto& pa : a.v4) {
    for (const auto& pb : b.v4) {
      if (pa.contains(pb) || pb.contains(pa)) return true;
    }
  }
  for (const auto& pa : a.v6) {
    for (const auto& pb : b.v6) {
      const auto& shorter = pa.length() <= pb.length() ? pa : pb;
      const auto& longer = pa.length() <= pb.length() ? pb : pa;
      if (shorter.contains(longer.network())) return true;
    }
  }
  return false;
}

/// Satisfiable real interval of a conjunction of rate thresholds.
struct RateInterval {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  void apply(const RatePred& p) noexcept {
    switch (p.op) {
      case CmpOp::kLt: tighten_hi(p.value, true); break;
      case CmpOp::kLe: tighten_hi(p.value, false); break;
      case CmpOp::kGt: tighten_lo(p.value, true); break;
      case CmpOp::kGe: tighten_lo(p.value, false); break;
      case CmpOp::kEq:
        tighten_lo(p.value, false);
        tighten_hi(p.value, false);
        break;
      case CmpOp::kNe: break;  // removes one point, never empties an interval
    }
  }
  [[nodiscard]] bool empty() const noexcept {
    if (lo > hi) return true;
    return lo == hi && (lo_open || hi_open);
  }

 private:
  void tighten_lo(double v, bool open) noexcept {
    if (v > lo || (v == lo && open)) {
      lo = v;
      lo_open = open;
    }
  }
  void tighten_hi(double v, bool open) noexcept {
    if (v < hi || (v == hi && open)) {
      hi = v;
      hi_open = open;
    }
  }
};

void check_pair(const Expr& a, const Expr& b) {
  const auto* pa_proto = std::get_if<ProtoPred>(&a.node);
  const auto* pb_proto = std::get_if<ProtoPred>(&b.node);
  if (pa_proto != nullptr && pb_proto != nullptr) {
    for (std::uint8_t p : pa_proto->protos) {
      if (std::find(pb_proto->protos.begin(), pb_proto->protos.end(), p) !=
          pb_proto->protos.end()) {
        return;
      }
    }
    always_false("proto", a, b, "protocol");
  }
  // tcp-flags pins the protocol to TCP; a proto term excluding TCP in the
  // same conjunction can never co-match.
  if (pa_proto != nullptr && std::holds_alternative<TcpFlagsPred>(b.node)) {
    if (std::find(pa_proto->protos.begin(), pa_proto->protos.end(),
                  kTcpProto) == pa_proto->protos.end()) {
      throw FilterError(b.loc, "always-false conjunction: 'tcp-flags' at " +
                                   b.loc.to_string() +
                                   " requires tcp but 'proto' at " +
                                   a.loc.to_string() + " excludes it");
    }
    return;
  }
  const auto* pa_port = std::get_if<PortPred>(&a.node);
  const auto* pb_port = std::get_if<PortPred>(&b.node);
  if (pa_port != nullptr && pb_port != nullptr && pa_port->dir == pb_port->dir) {
    // Each direction reads a single port value per record (kEither is the
    // one service port), so disjoint sets can never co-match.
    if (!ranges_intersect(pa_port->ranges, pb_port->ranges)) {
      always_false(axis_name("port", pa_port->dir), a, b, "port");
    }
    return;
  }
  const auto* pa_asn = std::get_if<AsnPred>(&a.node);
  const auto* pb_asn = std::get_if<AsnPred>(&b.node);
  if (pa_asn != nullptr && pb_asn != nullptr && pa_asn->dir == pb_asn->dir &&
      pa_asn->dir != Direction::kEither) {
    // kEither asn terms are two-valued (src or dst) and excluded: disjoint
    // sets can still both hold on one record.
    for (std::uint32_t v : pa_asn->asns) {
      if (std::find(pb_asn->asns.begin(), pb_asn->asns.end(), v) !=
          pb_asn->asns.end()) {
        return;
      }
    }
    always_false(axis_name("asn", pa_asn->dir), a, b, "AS number");
  }
  const auto* pa_net = std::get_if<NetPred>(&a.node);
  const auto* pb_net = std::get_if<NetPred>(&b.node);
  if (pa_net != nullptr && pb_net != nullptr && pa_net->dir == pb_net->dir &&
      pa_net->dir != Direction::kEither) {
    if (!nets_intersect(*pa_net, *pb_net)) {
      always_false(axis_name("net", pa_net->dir), a, b, "address");
    }
  }
}

void check_conjunction(const std::vector<const Expr*>& conjuncts) {
  for (std::size_t i = 0; i < conjuncts.size(); ++i) {
    for (std::size_t j = i + 1; j < conjuncts.size(); ++j) {
      check_pair(*conjuncts[i], *conjuncts[j]);
      check_pair(*conjuncts[j], *conjuncts[i]);
    }
  }
  // Rate thresholds: intersect all bounds per field.
  for (int f = 0; f < 4; ++f) {
    RateInterval iv;
    const Expr* first = nullptr;
    const Expr* emptied = nullptr;
    for (const Expr* c : conjuncts) {
      const auto* rp = std::get_if<RatePred>(&c->node);
      if (rp == nullptr || static_cast<int>(rp->field) != f) continue;
      if (first == nullptr) first = c;
      iv.apply(*rp);
      if (iv.empty() && emptied == nullptr) emptied = c;
    }
    if (emptied != nullptr) {
      throw FilterError(
          emptied->loc,
          "always-false conjunction: '" +
              std::string(to_string(static_cast<RateField>(f))) +
              "' thresholds at " + first->loc.to_string() + " and " +
              emptied->loc.to_string() + " cannot both hold");
    }
  }
}

// ---- service-rule fusion ---------------------------------------------------

/// Relative evaluation cost of a subtree (its most expensive leaf):
/// proto/port/flags tests are register compares or one bitmap probe, rate
/// tests a couple of float ops, net/asn tests binary searches with a
/// possible trie walk behind them. `and` is commutative over pure
/// predicates, so emit() runs the cheaper operand first.
[[nodiscard]] int eval_cost(const Expr& e) {
  return std::visit(
      Overloaded{
          [](const NotExpr& n) { return eval_cost(*n.operand); },
          [](const AndExpr& a) {
            return std::max(eval_cost(*a.lhs), eval_cost(*a.rhs));
          },
          [](const OrExpr& o) {
            return std::max(eval_cost(*o.lhs), eval_cost(*o.rhs));
          },
          [](const RatePred&) { return 1; },
          [](const NetPred&) { return 2; },
          [](const AsnPred&) { return 3; },
          [](const auto&) { return 0; },  // proto / port / tcp-flags
      },
      e.node);
}

void collect_conjuncts(const Expr& e, std::vector<const Expr*>& out) {
  if (const auto* a = std::get_if<AndExpr>(&e.node)) {
    collect_conjuncts(*a->lhs, out);
    collect_conjuncts(*a->rhs, out);
  } else {
    out.push_back(&e);
  }
}

/// Walk the whole tree; every maximal `and` chain gets a conjunction check
/// (including chains nested under or/not/parentheses).
void diagnose(const Expr& e, bool under_and = false) {
  std::visit(
      Overloaded{
          [&](const AndExpr& a) {
            if (!under_and) {
              std::vector<const Expr*> cs;
              collect_conjuncts(e, cs);
              check_conjunction(cs);
            }
            diagnose(*a.lhs, true);
            diagnose(*a.rhs, true);
          },
          [&](const OrExpr& o) {
            diagnose(*o.lhs, false);
            diagnose(*o.rhs, false);
          },
          [&](const NotExpr& n) { diagnose(*n.operand, false); },
          [](const auto&) {},
      },
      e.node);
}

}  // namespace

// ---- shared predicate helpers (predicates.hpp) ----------------------------

namespace detail {

namespace {

[[nodiscard]] std::pair<std::uint32_t, std::uint32_t> v4_interval(
    const net::Ipv4Prefix& p) noexcept {
  const std::uint32_t lo = p.network().value();
  const std::uint32_t host =
      p.length() == 32 ? 0 : (~std::uint32_t{0} >> p.length());
  return {lo, lo | host};
}

[[nodiscard]] U128 v6_end(const net::Ipv6Prefix& p) noexcept {
  std::uint64_t hi = p.network().high();
  std::uint64_t lo = p.network().low();
  const unsigned host = 128u - p.length();
  if (host >= 64) {
    lo = ~std::uint64_t{0};
    const unsigned hh = host - 64;
    hi |= hh >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << hh) - 1);
  } else if (host > 0) {
    lo |= (std::uint64_t{1} << host) - 1;
  }
  return {hi, lo};
}

[[nodiscard]] std::int64_t active_seconds(const flow::FlowRecord& r) noexcept {
  return std::max<std::int64_t>(1, r.last.seconds() - r.first.seconds());
}

}  // namespace

NetSet make_net_set(const NetPred& p) {
  NetSet set;
  for (const auto& pre : p.v4) set.v4.push_back(v4_interval(pre));
  for (const auto& pre : p.v6) set.v6.emplace_back(v6_key(pre.network()), v6_end(pre));
  merge_intervals(set.v4);
  merge_intervals(set.v6);
  return set;
}

bool eval_rate(const RatePred& p, const flow::FlowRecord& r) noexcept {
  double v = 0.0;
  switch (p.field) {
    case RateField::kBytes: v = static_cast<double>(r.bytes); break;
    case RateField::kPackets: v = static_cast<double>(r.packets); break;
    case RateField::kBps:
      v = 8.0 * static_cast<double>(r.bytes) /
          static_cast<double>(active_seconds(r));
      break;
    case RateField::kPps:
      v = static_cast<double>(r.packets) /
          static_cast<double>(active_seconds(r));
      break;
  }
  switch (p.op) {
    case CmpOp::kLt: return v < p.value;
    case CmpOp::kLe: return v <= p.value;
    case CmpOp::kGt: return v > p.value;
    case CmpOp::kGe: return v >= p.value;
    case CmpOp::kEq: return v == p.value;
    case CmpOp::kNe: return v != p.value;
  }
  return false;
}

void flatten_or(const Expr& e, std::vector<const Expr*>& out) {
  if (const auto* o = std::get_if<OrExpr>(&e.node)) {
    flatten_or(*o->lhs, out);
    flatten_or(*o->rhs, out);
  } else {
    out.push_back(&e);
  }
}

std::pair<const ProtoPred*, const PortPred*> service_rule(
    const Expr& e) noexcept {
  const auto* a = std::get_if<AndExpr>(&e.node);
  if (a == nullptr) return {nullptr, nullptr};
  const auto* proto = std::get_if<ProtoPred>(&a->lhs->node);
  const auto* port = std::get_if<PortPred>(&a->rhs->node);
  if (proto == nullptr || port == nullptr) {
    proto = std::get_if<ProtoPred>(&a->rhs->node);
    port = std::get_if<PortPred>(&a->lhs->node);
  }
  if (proto != nullptr && port != nullptr && port->dir == Direction::kEither) {
    return {proto, port};
  }
  return {nullptr, nullptr};
}

}  // namespace detail

// ---- compilation ----------------------------------------------------------

CompiledFilter CompiledFilter::compile(std::string_view source,
                                       const AsnTrie* trie) {
  CompiledFilter f;
  f.source_ = std::string(source);
  f.ast_ = parse_filter(source);
  f.trie_ = trie;
  diagnose(*f.ast_);
  f.entry_ = f.emit(*f.ast_, kAcceptTarget, kRejectTarget);
  if (!f.asn_sets_.empty() && f.asn_sets_.size() <= 64) {
    std::map<std::uint32_t, std::uint64_t> masks;
    for (std::size_t i = 0; i < f.asn_sets_.size(); ++i) {
      for (const std::uint32_t v : f.asn_sets_[i]) {
        masks[v] |= std::uint64_t{1} << i;
      }
    }
    std::size_t slots = 4;
    while (slots < masks.size() * 2) slots *= 2;
    f.asn_index_.assign(slots, {kEmptyKey, 0});
    f.asn_index_cap_ = static_cast<std::uint32_t>(slots - 1);
    for (const auto& [v, mask] : masks) {
      std::uint32_t h = (v * 2654435761u) & f.asn_index_cap_;
      while (f.asn_index_[h].first != kEmptyKey) h = (h + 1) & f.asn_index_cap_;
      f.asn_index_[h] = {v, mask};
    }
    f.use_asn_index_ = true;
  }
  f.batch_.add(*f.ast_);
  return f;
}

std::uint16_t CompiledFilter::push_step(const Expr& e, Op op,
                                        std::uint32_t payload,
                                        std::uint16_t on_true,
                                        std::uint16_t on_false) {
  if (steps_.size() >= kRejectTarget) {
    throw FilterError(e.loc, "filter too large to compile (more than " +
                                 std::to_string(kRejectTarget) + " steps)");
  }
  steps_.push_back(Step{op, on_true, on_false, payload});
  return static_cast<std::uint16_t>(steps_.size() - 1);
}

std::uint32_t CompiledFilter::make_service_set(
    const std::vector<std::pair<const ProtoPred*, const PortPred*>>& rules) {
  ServicePortSet set;
  set.per_proto.fill(-1);
  for (const auto& [proto, port] : rules) {
    for (const std::uint8_t p : proto->protos) {
      std::int32_t& idx = set.per_proto[p];
      if (idx < 0) {
        auto bm = std::make_unique<PortBitmap>();
        bm->fill(0);
        port_sets_.push_back(std::move(bm));
        idx = static_cast<std::int32_t>(port_sets_.size() - 1);
      }
      detail::set_ports(*port_sets_[static_cast<std::size_t>(idx)],
                        port->ranges);
    }
  }
  service_sets_.push_back(set);
  return static_cast<std::uint32_t>(service_sets_.size() - 1);
}

std::uint16_t CompiledFilter::emit(const Expr& e, std::uint16_t on_true,
                                   std::uint16_t on_false) {
  return std::visit(
      Overloaded{
          [&](const NotExpr& n) {  // free: swap the continuation targets
            return emit(*n.operand, on_false, on_true);
          },
          [&](const AndExpr& a) {
            // Single fused service rule: one step instead of proto + port.
            if (const auto rule = service_rule(e); rule.first != nullptr) {
              return push_step(e, Op::kServicePort, make_service_set({rule}),
                               on_true, on_false);
            }
            // Cheapest operand first; `and` over pure predicates commutes.
            const Expr* first = a.lhs.get();
            const Expr* second = a.rhs.get();
            if (eval_cost(*first) > eval_cost(*second)) {
              std::swap(first, second);
            }
            const std::uint16_t rhs = emit(*second, on_true, on_false);
            return emit(*first, rhs, on_false);
          },
          [&](const OrExpr&) {
            // Fuse the or-chain: every service-rule disjunct goes into one
            // combined per-protocol bitmap step, every undirected asn
            // disjunct into one combined membership set (or of
            // memberships == membership in the union). The remaining
            // disjuncts keep their ordinary short-circuit chain behind
            // the two fused steps.
            std::vector<const Expr*> disjuncts;
            flatten_or(e, disjuncts);
            std::vector<std::pair<const ProtoPred*, const PortPred*>> rules;
            std::vector<std::uint32_t> asns;
            std::vector<const Expr*> rest;
            for (const Expr* d : disjuncts) {
              if (const auto rule = service_rule(*d); rule.first != nullptr) {
                rules.push_back(rule);
                continue;
              }
              const auto* ap = std::get_if<AsnPred>(&d->node);
              if (ap != nullptr && ap->dir == Direction::kEither) {
                asns.insert(asns.end(), ap->asns.begin(), ap->asns.end());
                continue;
              }
              rest.push_back(d);
            }
            std::uint16_t next = on_false;
            for (std::size_t i = rest.size(); i-- > 0;) {
              next = emit(*rest[i], on_true, next);
            }
            if (!asns.empty()) {
              std::sort(asns.begin(), asns.end());
              asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
              asn_sets_.push_back(std::move(asns));
              next = push_step(
                  e, Op::kAsnSet,
                  (static_cast<std::uint32_t>(Direction::kEither) << 16) |
                      static_cast<std::uint32_t>(asn_sets_.size() - 1),
                  on_true, next);
            }
            if (!rules.empty()) {
              next = push_step(e, Op::kServicePort, make_service_set(rules),
                               on_true, next);
            }
            return next;
          },
          [&](const ProtoPred& p) {
            if (p.protos.size() == 1) {
              return push_step(e, Op::kProtoEq, p.protos[0], on_true, on_false);
            }
            ProtoBitmap bm{};
            for (std::uint8_t v : p.protos) bm[v >> 6] |= 1ULL << (v & 63);
            proto_sets_.push_back(bm);
            return push_step(e, Op::kProtoSet,
                             static_cast<std::uint32_t>(proto_sets_.size() - 1),
                             on_true, on_false);
          },
          [&](const PortPred& p) {
            const auto dir = static_cast<std::uint32_t>(p.dir) << 16;
            if (p.ranges.size() == 1 && p.ranges[0].first == p.ranges[0].second) {
              return push_step(e, Op::kPortEq, dir | p.ranges[0].first, on_true,
                               on_false);
            }
            auto bm = std::make_unique<PortBitmap>();
            bm->fill(0);
            detail::set_ports(*bm, p.ranges);
            port_sets_.push_back(std::move(bm));
            return push_step(
                e, Op::kPortSet,
                dir | static_cast<std::uint32_t>(port_sets_.size() - 1),
                on_true, on_false);
          },
          [&](const NetPred& p) {
            net_sets_.push_back(detail::make_net_set(p));
            return push_step(
                e, Op::kNet,
                (static_cast<std::uint32_t>(p.dir) << 16) |
                    static_cast<std::uint32_t>(net_sets_.size() - 1),
                on_true, on_false);
          },
          [&](const AsnPred& p) {
            if (p.asns.size() == 1) {
              asn_eq_.push_back(AsnEq{p.dir, p.asns[0]});
              return push_step(e, Op::kAsnEq,
                               static_cast<std::uint32_t>(asn_eq_.size() - 1),
                               on_true, on_false);
            }
            std::vector<std::uint32_t> sorted = p.asns;
            std::sort(sorted.begin(), sorted.end());
            sorted.erase(std::unique(sorted.begin(), sorted.end()),
                         sorted.end());
            asn_sets_.push_back(std::move(sorted));
            return push_step(
                e, Op::kAsnSet,
                (static_cast<std::uint32_t>(p.dir) << 16) |
                    static_cast<std::uint32_t>(asn_sets_.size() - 1),
                on_true, on_false);
          },
          [&](const TcpFlagsPred& p) {
            return push_step(e, p.any ? Op::kFlagsAny : Op::kFlagsAll, p.mask,
                             on_true, on_false);
          },
          [&](const RatePred& p) {
            rates_.push_back(p);
            return push_step(e, Op::kRate,
                             static_cast<std::uint32_t>(rates_.size() - 1),
                             on_true, on_false);
          },
      },
      e.node);
}

// ---- execution ------------------------------------------------------------

std::uint32_t CompiledFilter::resolve_as(net::Asn annotated,
                                         const net::IpAddress& addr) const {
  // Mirrors analysis::AsView: exporter annotation first, longest-prefix
  // match against the routing snapshot as fallback, 0 = unknown.
  if (annotated.value() != 0) return annotated.value();
  if (trie_ != nullptr && addr.is_v4()) {
    if (const auto as = trie_->lookup(addr.v4())) return as->value();
  }
  return 0;
}

std::uint64_t CompiledFilter::index_mask(std::uint32_t asn) const noexcept {
  std::uint32_t h = (asn * 2654435761u) & asn_index_cap_;
  while (true) {
    const auto& [key, mask] = asn_index_[h];
    if (key == asn) return mask;
    if (key == kEmptyKey) return 0;
    h = (h + 1) & asn_index_cap_;
  }
}

std::uint32_t CompiledFilter::src_as(const flow::FlowRecord& r,
                                     AsnCache& c) const {
  if (c.src == AsnCache::kUnset) c.src = resolve_as(r.src_as, r.src_addr);
  return static_cast<std::uint32_t>(c.src);
}

std::uint32_t CompiledFilter::dst_as(const flow::FlowRecord& r,
                                     AsnCache& c) const {
  if (c.dst == AsnCache::kUnset) c.dst = resolve_as(r.dst_as, r.dst_addr);
  return static_cast<std::uint32_t>(c.dst);
}

bool CompiledFilter::eval_step(const Step& s, const flow::FlowRecord& r,
                               AsnCache& cache) const {
  const auto dir = static_cast<Direction>(s.payload >> 16);
  const auto low = s.payload & 0xffffu;
  const auto service = [&r, &cache]() -> std::uint32_t {
    if (cache.service == ~std::uint32_t{0}) cache.service = detail::service_key(r);
    return cache.service;
  };
  switch (s.op) {
    case Op::kProtoEq:
      return static_cast<std::uint8_t>(r.protocol) == s.payload;
    case Op::kProtoSet: {
      const std::uint8_t v = static_cast<std::uint8_t>(r.protocol);
      return (proto_sets_[s.payload][v >> 6] >> (v & 63)) & 1;
    }
    case Op::kPortEq:
    case Op::kPortSet: {
      const std::uint16_t p =
          dir == Direction::kSrc   ? r.src_port
          : dir == Direction::kDst ? r.dst_port
                                   : static_cast<std::uint16_t>(service());
      if (s.op == Op::kPortEq) return p == low;
      return ((*port_sets_[low])[p >> 6] >> (p & 63)) & 1;
    }
    case Op::kNet: {
      const NetSet& set = net_sets_[low];
      const auto test = [&set](const net::IpAddress& a) {
        return detail::in_net_set(set, a);
      };
      if (dir == Direction::kSrc) return test(r.src_addr);
      if (dir == Direction::kDst) return test(r.dst_addr);
      return test(r.src_addr) || test(r.dst_addr);
    }
    case Op::kAsnEq: {
      const AsnEq& eq = asn_eq_[s.payload];
      if (eq.dir == Direction::kSrc) return src_as(r, cache) == eq.asn;
      if (eq.dir == Direction::kDst) return dst_as(r, cache) == eq.asn;
      return src_as(r, cache) == eq.asn || dst_as(r, cache) == eq.asn;
    }
    case Op::kAsnSet: {
      if (use_asn_index_) {
        if (!cache.masks_set) {
          cache.src_mask = index_mask(src_as(r, cache));
          cache.dst_mask = index_mask(dst_as(r, cache));
          cache.masks_set = true;
        }
        const std::uint64_t bit = std::uint64_t{1} << low;
        if (dir == Direction::kSrc) return (cache.src_mask & bit) != 0;
        if (dir == Direction::kDst) return (cache.dst_mask & bit) != 0;
        return ((cache.src_mask | cache.dst_mask) & bit) != 0;
      }
      const auto& set = asn_sets_[low];
      const auto has = [&set](std::uint32_t v) {
        return std::binary_search(set.begin(), set.end(), v);
      };
      if (dir == Direction::kSrc) return has(src_as(r, cache));
      if (dir == Direction::kDst) return has(dst_as(r, cache));
      return has(src_as(r, cache)) || has(dst_as(r, cache));
    }
    case Op::kFlagsAll:
      return r.protocol == flow::IpProtocol::kTcp &&
             (r.tcp_flags & s.payload) == s.payload;
    case Op::kFlagsAny:
      return r.protocol == flow::IpProtocol::kTcp &&
             (r.tcp_flags & s.payload) != 0;
    case Op::kRate:
      return eval_rate(rates_[s.payload], r);
    case Op::kServicePort: {
      const ServicePortSet& set = service_sets_[s.payload];
      const std::uint32_t key = service();
      const std::int32_t idx = set.per_proto[key >> 16];
      if (idx < 0) return false;
      const std::uint16_t port = static_cast<std::uint16_t>(key);
      const PortBitmap& bm = *port_sets_[static_cast<std::size_t>(idx)];
      return (bm[port >> 6] >> (port & 63)) & 1;
    }
  }
  return false;
}

bool CompiledFilter::run(const flow::FlowRecord& r) const {
  AsnCache cache;
  std::uint16_t pc = entry_;
  for (;;) {
    if (pc >= kRejectTarget) return pc == kAcceptTarget;
    const Step& s = steps_[pc];
    pc = eval_step(s, r, cache) ? s.on_true : s.on_false;
  }
}

bool CompiledFilter::match(const flow::FlowRecord& r) const { return run(r); }

namespace {

/// Columns for the standalone match_batch form (per thread).
thread_local FlowColumns g_cols;

}  // namespace

std::uint32_t resolve_endpoint_as(const AsnTrie* trie, net::Asn annotated,
                                  const net::IpAddress& addr) {
  if (annotated.value() != 0) return annotated.value();
  if (trie != nullptr && addr.is_v4()) {
    if (const auto as = trie->lookup(addr.v4())) return as->value();
  }
  return 0;
}

void FlowColumns::build(std::span<const flow::FlowRecord> records,
                        const AsnTrie* trie) {
  const std::size_t n = records.size();
  service.resize(n);
  src_as.resize(n);
  dst_as.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const flow::FlowRecord& r = records[i];
    service[i] = detail::service_key(r);
    src_as[i] = resolve_endpoint_as(trie, r.src_as, r.src_addr);
    dst_as[i] = resolve_endpoint_as(trie, r.dst_as, r.dst_addr);
  }
}

void CompiledFilter::match_batch(std::span<const flow::FlowRecord> records,
                                 std::span<std::uint8_t> out) const {
  // Standalone form: derive only the columns this plan consults.
  FlowColumns& cols = g_cols;
  const std::size_t n = records.size();
  if (batch_.needs_service()) {
    cols.service.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.service[i] = detail::service_key(records[i]);
    }
  }
  if (batch_.needs_as()) {
    cols.src_as.resize(n);
    cols.dst_as.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.src_as[i] =
          resolve_endpoint_as(trie_, records[i].src_as, records[i].src_addr);
      cols.dst_as[i] =
          resolve_endpoint_as(trie_, records[i].dst_as, records[i].dst_addr);
    }
  }
  match_batch(records, out, cols);
}

void CompiledFilter::match_batch(std::span<const flow::FlowRecord> records,
                                 std::span<std::uint8_t> out,
                                 const FlowColumns& cols) const {
  TRACE_SPAN_ARG("filter", "filter.match_batch", records.size());
  batch_.evaluate(records, cols, out);
}

// ---- reference interpreter ------------------------------------------------

bool CompiledFilter::eval_ref(const Expr& e, const flow::FlowRecord& r,
                              AsnCache& cache) const {
  return std::visit(
      Overloaded{
          [&](const NotExpr& n) { return !eval_ref(*n.operand, r, cache); },
          [&](const AndExpr& a) {
            return eval_ref(*a.lhs, r, cache) && eval_ref(*a.rhs, r, cache);
          },
          [&](const OrExpr& o) {
            return eval_ref(*o.lhs, r, cache) || eval_ref(*o.rhs, r, cache);
          },
          [&](const ProtoPred& p) {
            const auto v = static_cast<std::uint8_t>(r.protocol);
            return std::find(p.protos.begin(), p.protos.end(), v) !=
                   p.protos.end();
          },
          [&](const PortPred& p) {
            const std::uint16_t v = p.dir == Direction::kSrc   ? r.src_port
                                    : p.dir == Direction::kDst ? r.dst_port
                                    : r.service_port().port;
            for (const auto& [lo, hi] : p.ranges) {
              if (lo <= v && v <= hi) return true;
            }
            return false;
          },
          [&](const NetPred& p) {
            const auto test = [&p](const net::IpAddress& a) {
              if (a.is_v4()) {
                for (const auto& pre : p.v4) {
                  if (pre.contains(a.v4())) return true;
                }
              } else {
                for (const auto& pre : p.v6) {
                  if (pre.contains(a.v6())) return true;
                }
              }
              return false;
            };
            if (p.dir == Direction::kSrc) return test(r.src_addr);
            if (p.dir == Direction::kDst) return test(r.dst_addr);
            return test(r.src_addr) || test(r.dst_addr);
          },
          [&](const AsnPred& p) {
            const auto has = [&p](std::uint32_t v) {
              return std::find(p.asns.begin(), p.asns.end(), v) !=
                     p.asns.end();
            };
            if (p.dir == Direction::kSrc) return has(src_as(r, cache));
            if (p.dir == Direction::kDst) return has(dst_as(r, cache));
            return has(src_as(r, cache)) || has(dst_as(r, cache));
          },
          [&](const TcpFlagsPred& p) {
            if (r.protocol != flow::IpProtocol::kTcp) return false;
            return p.any ? (r.tcp_flags & p.mask) != 0
                         : (r.tcp_flags & p.mask) == p.mask;
          },
          [&](const RatePred& p) { return eval_rate(p, r); },
      },
      e.node);
}

bool CompiledFilter::match_reference(const flow::FlowRecord& r) const {
  AsnCache cache;
  return eval_ref(*ast_, r, cache);
}

}  // namespace lockdown::filter
