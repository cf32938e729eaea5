#include "oracle/filter_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

namespace lockdown::oracle {

namespace {

using filter::Direction;

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// One record's evaluation: endpoint ASes resolve lazily, once each.
struct Eval {
  const filter::AsnTrie* trie;
  const flow::FlowRecord& r;
  std::optional<std::uint32_t> src;
  std::optional<std::uint32_t> dst;

  std::uint32_t src_as() {
    if (!src) src = filter::resolve_endpoint_as(trie, r.src_as, r.src_addr);
    return *src;
  }
  std::uint32_t dst_as() {
    if (!dst) dst = filter::resolve_endpoint_as(trie, r.dst_as, r.dst_addr);
    return *dst;
  }

  [[nodiscard]] bool rate(const filter::RatePred& p) const {
    const double active = static_cast<double>(
        std::max<std::int64_t>(1, r.last.seconds() - r.first.seconds()));
    double v = 0.0;
    switch (p.field) {
      case filter::RateField::kBytes: v = static_cast<double>(r.bytes); break;
      case filter::RateField::kPackets: v = static_cast<double>(r.packets); break;
      case filter::RateField::kBps: v = 8.0 * static_cast<double>(r.bytes) / active; break;
      case filter::RateField::kPps: v = static_cast<double>(r.packets) / active; break;
    }
    switch (p.op) {
      case filter::CmpOp::kLt: return v < p.value;
      case filter::CmpOp::kLe: return v <= p.value;
      case filter::CmpOp::kGt: return v > p.value;
      case filter::CmpOp::kGe: return v >= p.value;
      case filter::CmpOp::kEq: return v == p.value;
      case filter::CmpOp::kNe: return v != p.value;
    }
    return false;
  }

  bool operator()(const filter::Expr& e) {
    return std::visit(
        Overloaded{
            [&](const filter::NotExpr& n) { return !(*this)(*n.operand); },
            [&](const filter::AndExpr& a) {
              return (*this)(*a.lhs) && (*this)(*a.rhs);
            },
            [&](const filter::OrExpr& o) {
              return (*this)(*o.lhs) || (*this)(*o.rhs);
            },
            [&](const filter::ProtoPred& p) {
              const auto v = static_cast<std::uint8_t>(r.protocol);
              return std::find(p.protos.begin(), p.protos.end(), v) !=
                     p.protos.end();
            },
            [&](const filter::PortPred& p) {
              const std::uint16_t v = p.dir == Direction::kSrc   ? r.src_port
                                      : p.dir == Direction::kDst ? r.dst_port
                                      : r.service_port().port;
              for (const auto& [lo, hi] : p.ranges) {
                if (lo <= v && v <= hi) return true;
              }
              return false;
            },
            [&](const filter::NetPred& p) {
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
            [&](const filter::AsnPred& p) {
              const auto has = [&p](std::uint32_t v) {
                return std::find(p.asns.begin(), p.asns.end(), v) !=
                       p.asns.end();
              };
              if (p.dir == Direction::kSrc) return has(src_as());
              if (p.dir == Direction::kDst) return has(dst_as());
              return has(src_as()) || has(dst_as());
            },
            [&](const filter::TcpFlagsPred& p) {
              if (r.protocol != flow::IpProtocol::kTcp) return false;
              return p.any ? (r.tcp_flags & p.mask) != 0
                           : (r.tcp_flags & p.mask) == p.mask;
            },
            [&](const filter::RatePred& p) { return rate(p); },
        },
        e.node);
  }
};

}  // namespace

bool match_reference(const filter::CompiledFilter& f, const flow::FlowRecord& r) {
  Eval eval{f.trie(), r, std::nullopt, std::nullopt};
  return eval(f.ast());
}

}  // namespace lockdown::oracle
