#include "filter/plan.hpp"

#include <algorithm>
#include <limits>

#include "filter/parser.hpp"
#include "filter/predicates.hpp"
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
  f.plan_.add(*f.ast_);
  return f;
}

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

void CompiledFilter::evaluate(std::span<const flow::FlowRecord> records,
                              std::span<std::uint8_t> out) const {
  // Standalone form: derive only the columns this plan consults.
  FlowColumns& cols = g_cols;
  const std::size_t n = records.size();
  if (plan_.needs_service()) {
    cols.service.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.service[i] = detail::service_key(records[i]);
    }
  }
  if (plan_.needs_as()) {
    cols.src_as.resize(n);
    cols.dst_as.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      cols.src_as[i] =
          resolve_endpoint_as(trie_, records[i].src_as, records[i].src_addr);
      cols.dst_as[i] =
          resolve_endpoint_as(trie_, records[i].dst_as, records[i].dst_addr);
    }
  }
  plan_.evaluate(records, cols, out);
}

bool CompiledFilter::match(const flow::FlowRecord& r) const {
  std::uint8_t hit = 0;
  evaluate({&r, 1}, {&hit, 1});
  return hit != 0;
}

void CompiledFilter::match_batch(std::span<const flow::FlowRecord> records,
                                 std::span<std::uint8_t> out) const {
  TRACE_SPAN_ARG("filter", "filter.match_batch", records.size());
  evaluate(records, out);
}

void CompiledFilter::match_batch(std::span<const flow::FlowRecord> records,
                                 std::span<std::uint8_t> out,
                                 const FlowColumns& cols) const {
  TRACE_SPAN_ARG("filter", "filter.match_batch", records.size());
  plan_.evaluate(records, cols, out);
}

}  // namespace lockdown::filter
