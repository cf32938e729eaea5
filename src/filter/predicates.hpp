// Predicate helpers of the fused filter plan (fused.cpp; defined in
// plan.cpp): CIDR lists as merged address intervals, port lists as
// 65536-bit bitmaps, rate-threshold evaluation, and the recognizer for the
// fusible `proto P and port L` service-rule shape. Internal to src/filter/.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "filter/ast.hpp"
#include "flow/flow_record.hpp"

namespace lockdown::filter::detail {

using PortBitmap = std::array<std::uint64_t, 1024>;  // 65536 bits
using U128 = std::pair<std::uint64_t, std::uint64_t>;  // (high, low)

/// Merged, sorted, disjoint inclusive address intervals.
struct NetSet {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> v4;
  std::vector<std::pair<U128, U128>> v6;
};

[[nodiscard]] inline U128 v6_key(const net::Ipv6Address& a) noexcept {
  return {a.high(), a.low()};
}

/// Sort by start and merge overlapping intervals; the result is sorted and
/// disjoint, so membership is one binary search.
template <typename K>
void merge_intervals(std::vector<std::pair<K, K>>& iv) {
  std::sort(iv.begin(), iv.end());
  std::size_t w = 0;
  for (std::size_t i = 0; i < iv.size(); ++i) {
    if (w > 0 && iv[i].first <= iv[w - 1].second) {
      iv[w - 1].second = std::max(iv[w - 1].second, iv[i].second);
    } else {
      iv[w++] = iv[i];
    }
  }
  iv.resize(w);
}

template <typename K>
[[nodiscard]] bool in_intervals(const std::vector<std::pair<K, K>>& iv,
                                const K& key) noexcept {
  auto it = std::upper_bound(
      iv.begin(), iv.end(), key,
      [](const K& v, const std::pair<K, K>& e) { return v < e.first; });
  if (it == iv.begin()) return false;
  return key <= (it - 1)->second;
}

/// The prefixes of a net term as merged intervals.
[[nodiscard]] NetSet make_net_set(const NetPred& p);

[[nodiscard]] inline bool in_net_set(const NetSet& set,
                                     const net::IpAddress& a) noexcept {
  if (a.is_v4()) return in_intervals(set.v4, a.v4().value());
  return in_intervals(set.v6, v6_key(a.v6()));
}

/// Set every port of `ranges` in `bm`.
inline void set_ports(
    PortBitmap& bm,
    const std::vector<std::pair<std::uint16_t, std::uint16_t>>& ranges) {
  for (const auto& [lo, hi] : ranges) {
    for (std::uint32_t v = lo; v <= hi; ++v) bm[v >> 6] |= 1ULL << (v & 63);
  }
}

[[nodiscard]] inline bool has_port(const PortBitmap& bm,
                                   std::uint16_t p) noexcept {
  return ((bm[p >> 6] >> (p & 63)) & 1) != 0;
}

/// (proto << 16) | service port -- the FlowColumns::service layout.
[[nodiscard]] inline std::uint32_t service_key(
    const flow::FlowRecord& r) noexcept {
  const flow::PortKey key = r.service_port();
  return (static_cast<std::uint32_t>(static_cast<std::uint8_t>(key.proto))
          << 16) |
         key.port;
}

[[nodiscard]] bool eval_rate(const RatePred& p, const flow::FlowRecord& r) noexcept;

/// Disjuncts of a (possibly nested) `or` chain, left to right.
void flatten_or(const Expr& e, std::vector<const Expr*>& out);

/// Recognizes the fusible service-rule shape `proto P[,Q...] and port L`
/// (either operand order; the port term must be undirected, i.e. match the
/// service port). Returns {nullptr, nullptr} for anything else.
[[nodiscard]] std::pair<const ProtoPred*, const PortPred*> service_rule(
    const Expr& e) noexcept;

}  // namespace lockdown::filter::detail
