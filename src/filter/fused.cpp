#include "filter/fused.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "filter/plan.hpp"

namespace lockdown::filter {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

constexpr std::size_t kChunk = 512;
constexpr std::size_t kWords = kChunk / 64;  // column words per node

const detail::PortBitmap kNoPorts{};

/// Structural serialization of a subtree, source positions left out: two
/// subtrees get the same key exactly when they are the same expression up
/// to the order of comma lists. Every node's encoding is self-delimiting,
/// so a parent's key is its tag followed by its children's keys.
void serialize(const Expr& e, std::vector<std::uint64_t>& k) {
  std::visit(
      Overloaded{
          [&](const ProtoPred& p) {
            std::vector<std::uint8_t> v = p.protos;
            std::sort(v.begin(), v.end());
            k.push_back(0);
            k.push_back(v.size());
            k.insert(k.end(), v.begin(), v.end());
          },
          [&](const PortPred& p) {
            auto v = p.ranges;
            std::sort(v.begin(), v.end());
            k.push_back(1);
            k.push_back(static_cast<std::uint64_t>(p.dir));
            k.push_back(v.size());
            for (const auto& [lo, hi] : v) k.push_back((std::uint64_t{lo} << 16) | hi);
          },
          [&](const NetPred& p) {
            const detail::NetSet set = detail::make_net_set(p);
            k.push_back(2);
            k.push_back(static_cast<std::uint64_t>(p.dir));
            k.push_back(set.v4.size());
            for (const auto& [lo, hi] : set.v4) {
              k.push_back((std::uint64_t{lo} << 32) | hi);
            }
            k.push_back(set.v6.size());
            for (const auto& [lo, hi] : set.v6) {
              k.insert(k.end(), {lo.first, lo.second, hi.first, hi.second});
            }
          },
          [&](const AsnPred& p) {
            std::vector<std::uint32_t> v = p.asns;
            std::sort(v.begin(), v.end());
            v.erase(std::unique(v.begin(), v.end()), v.end());
            k.push_back(3);
            k.push_back(static_cast<std::uint64_t>(p.dir));
            k.push_back(v.size());
            k.insert(k.end(), v.begin(), v.end());
          },
          [&](const TcpFlagsPred& p) {
            k.insert(k.end(), {4, p.any ? 1u : 0u, p.mask});
          },
          [&](const RatePred& p) {
            k.insert(k.end(), {5, static_cast<std::uint64_t>(p.field),
                               static_cast<std::uint64_t>(p.op),
                               std::bit_cast<std::uint64_t>(p.value)});
          },
          [&](const NotExpr& n) {
            k.push_back(6);
            serialize(*n.operand, k);
          },
          [&](const AndExpr& a) {
            k.push_back(7);
            serialize(*a.lhs, k);
            serialize(*a.rhs, k);
          },
          [&](const OrExpr& o) {
            k.push_back(8);
            serialize(*o.lhs, k);
            serialize(*o.rhs, k);
          },
      },
      e.node);
}

/// Packs pred(0..n) (each 0 or 1) into bit columns, 64 records per word.
/// The verdicts land in a byte array first, so the predicate loop carries
/// no dependency (and vectorizes where the predicate does); eight 0/1
/// bytes then pack into one bit-byte with a single multiply.
template <class Pred>
inline void fill_bits(std::uint64_t* col, std::size_t n, Pred&& pred) {
  static_assert(std::endian::native == std::endian::little,
                "the byte-to-bit packing reads flag k as byte k of a word");
  std::uint8_t flags[64];
  for (std::size_t base = 0, w = 0; base < n; base += 64, ++w) {
    const std::size_t m = std::min<std::size_t>(64, n - base);
    for (std::size_t j = 0; j < m; ++j) {
      flags[j] = static_cast<std::uint8_t>(pred(base + j));
    }
    const std::size_t groups = (m + 7) / 8;
    std::fill(flags + m, flags + 8 * groups, std::uint8_t{0});
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < groups; ++b) {
      std::uint64_t x;
      std::memcpy(&x, flags + 8 * b, sizeof x);
      // Byte k of x (0 or 1) lands on bit 56 + k; nothing else reaches
      // the top byte and no partial products carry into it.
      bits |= ((x * 0x0102040810204080ULL) >> 56) << (8 * b);
    }
    col[w] = bits;
  }
}

/// Per-thread evaluator scratch: one column of kWords per node, and the
/// chunk's per-record AS-set membership rows for each endpoint.
struct Scratch {
  std::vector<std::uint64_t> cols;
  std::vector<std::uint64_t> src_mask;  // record-major, asn_words_ each
  std::vector<std::uint64_t> dst_mask;
};

thread_local Scratch g_scratch;

}  // namespace

// ---- lowering -------------------------------------------------------------

std::size_t FusedPlan::add(const Expr& ast) {
  const Ref out = lower(ast);
  outputs_.push_back(out);
  rebuild_asn_index();
  return outputs_.size() - 1;
}

FusedPlan::Ref FusedPlan::intern(Key key, Node node) {
  if (const auto it = interned_.find(key); it != interned_.end()) {
    return it->second;
  }
  if (nodes_.size() >= (std::uint32_t{1} << 31)) {
    throw FilterError({}, "filter set too large to compile (more than 2^31 "
                          "plan nodes)");
  }
  nodes_.push_back(node);
  const Ref ref = static_cast<Ref>((nodes_.size() - 1) << 1);
  interned_.emplace(std::move(key), ref);
  if (node.op == Op::kService ||
      (node.op == Op::kPort && node.dir == Direction::kEither)) {
    needs_service_ = true;
  }
  return ref;
}

FusedPlan::Ref FusedPlan::combine(Op op, std::vector<Ref> kids) {
  std::sort(kids.begin(), kids.end());
  kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  if (kids.size() == 1) return kids.front();
  Key key{static_cast<std::uint64_t>(op)};
  key.insert(key.end(), kids.begin(), kids.end());
  if (const auto it = interned_.find(key); it != interned_.end()) {
    return it->second;
  }
  Node node{op, Direction::kEither, static_cast<std::uint32_t>(kids_.size()),
            static_cast<std::uint32_t>(kids.size())};
  kids_.insert(kids_.end(), kids.begin(), kids.end());
  return intern(std::move(key), node);
}

template <class Push>
FusedPlan::Ref FusedPlan::pooled_leaf(Key key, Op op, Direction dir,
                                      Push&& push) {
  if (const auto it = interned_.find(key); it != interned_.end()) {
    return it->second;
  }
  const auto a = static_cast<std::uint32_t>(push());
  return intern(std::move(key), {op, dir, a, 0});
}

std::uint32_t FusedPlan::port_set(const detail::PortBitmap& bm) {
  for (std::size_t i = 0; i < port_sets_.size(); ++i) {
    if (*port_sets_[i] == bm) return static_cast<std::uint32_t>(i);
  }
  port_sets_.push_back(std::make_unique<detail::PortBitmap>(bm));
  return static_cast<std::uint32_t>(port_sets_.size() - 1);
}

std::uint32_t FusedPlan::atom_id(const Expr& e) {
  Key key;
  serialize(e, key);
  const auto next = static_cast<std::uint32_t>(atoms_.size());
  return atoms_.emplace(std::move(key), next).first->second;
}

FusedPlan::Ref FusedPlan::leaf_service(
    const std::vector<std::pair<const ProtoPred*, const PortPred*>>& rules) {
  std::map<std::uint8_t, detail::PortBitmap> per_proto;
  for (const auto& [proto, port] : rules) {
    for (const std::uint8_t p : proto->protos) {
      detail::set_ports(per_proto.try_emplace(p).first->second, port->ranges);
    }
  }
  Key key{static_cast<std::uint64_t>(Op::kService)};
  ServiceSet set;
  set.per_proto.fill(&kNoPorts);
  for (const auto& [p, bm] : per_proto) {
    const std::uint32_t id = port_set(bm);
    key.push_back((std::uint64_t{p} << 32) | id);
    set.per_proto[p] = port_sets_[id].get();
  }
  return pooled_leaf(std::move(key), Op::kService, Direction::kEither, [&] {
    service_sets_.push_back(set);
    return service_sets_.size() - 1;
  });
}

FusedPlan::Ref FusedPlan::leaf_asn(Direction dir,
                                   std::vector<std::uint32_t> asns) {
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  const auto next = static_cast<std::uint32_t>(asn_sets_.size());
  const auto [it, fresh] = asn_set_ids_.emplace(asns, next);
  if (fresh) asn_sets_.push_back(std::move(asns));
  return intern({static_cast<std::uint64_t>(Op::kAsn),
                 static_cast<std::uint64_t>(dir), it->second},
                {Op::kAsn, dir, it->second, 0});
}

FusedPlan::Ref FusedPlan::lower(const Expr& e) {
  return std::visit(
      Overloaded{
          [&](const NotExpr& n) { return lower(*n.operand) ^ Ref{1}; },
          [&](const AndExpr& a) {
            if (const auto rule = detail::service_rule(e); rule.first != nullptr) {
              return leaf_service({rule});
            }
            return combine(Op::kAnd, {lower(*a.lhs), lower(*a.rhs)});
          },
          [&](const OrExpr&) { return lower_or(e); },
          [&](const ProtoPred& p) {
            ProtoBitmap bm{};
            for (const std::uint8_t v : p.protos) bm[v >> 6] |= 1ULL << (v & 63);
            Key key{static_cast<std::uint64_t>(Op::kProto)};
            key.insert(key.end(), bm.begin(), bm.end());
            return pooled_leaf(std::move(key), Op::kProto, Direction::kEither, [&] {
              proto_sets_.push_back(bm);
              return proto_sets_.size() - 1;
            });
          },
          [&](const PortPred& p) {
            detail::PortBitmap bm{};
            detail::set_ports(bm, p.ranges);
            const std::uint32_t id = port_set(bm);
            return intern({static_cast<std::uint64_t>(Op::kPort),
                           static_cast<std::uint64_t>(p.dir), id},
                          {Op::kPort, p.dir, id, 0});
          },
          [&](const NetPred& p) {
            Key key{static_cast<std::uint64_t>(Op::kNet)};
            serialize(e, key);
            return pooled_leaf(std::move(key), Op::kNet, p.dir, [&] {
              net_sets_.push_back(detail::make_net_set(p));
              return net_sets_.size() - 1;
            });
          },
          [&](const AsnPred& p) { return leaf_asn(p.dir, p.asns); },
          [&](const TcpFlagsPred& p) {
            const Op op = p.any ? Op::kFlagsAny : Op::kFlagsAll;
            return intern({static_cast<std::uint64_t>(op), p.mask},
                          {op, Direction::kEither, p.mask, 0});
          },
          [&](const RatePred& p) {
            Key key{static_cast<std::uint64_t>(Op::kRate)};
            serialize(e, key);
            return pooled_leaf(std::move(key), Op::kRate, Direction::kEither, [&] {
              rates_.push_back(p);
              return rates_.size() - 1;
            });
          },
      },
      e.node);
}

FusedPlan::Ref FusedPlan::lower_or(const Expr& e) {
  std::vector<const Expr*> disjuncts;
  detail::flatten_or(e, disjuncts);
  // Distinct disjuncts by structure, ordered by atom id.
  std::vector<std::pair<std::uint32_t, const Expr*>> items;
  for (const Expr* d : disjuncts) items.emplace_back(atom_id(*d), d);
  std::sort(items.begin(), items.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  items.erase(std::unique(items.begin(), items.end(),
                          [](const auto& x, const auto& y) {
                            return x.first == y.first;
                          }),
              items.end());
  if (items.size() == 1) return lower(*items.front().second);
  std::vector<std::uint32_t> atoms;
  for (const auto& [id, d] : items) atoms.push_back(id);
  for (const OrNode& on : or_nodes_) {
    if (on.atoms == atoms) return on.ref;
  }

  // Reuse rule: earlier `or` nodes whose disjuncts all appear here, largest
  // first, each taken while it still covers a disjunct not yet covered.
  std::vector<std::size_t> order(or_nodes_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return or_nodes_[x].atoms.size() > or_nodes_[y].atoms.size();
  });
  std::vector<bool> covered(atoms.size(), false);
  std::vector<Ref> kids;
  for (const std::size_t c : order) {
    const std::vector<std::uint32_t>& sub = or_nodes_[c].atoms;
    if (sub.size() >= atoms.size() ||
        !std::includes(atoms.begin(), atoms.end(), sub.begin(), sub.end())) {
      continue;
    }
    bool adds = false;
    for (const std::uint32_t a : sub) {
      const auto i = static_cast<std::size_t>(
          std::lower_bound(atoms.begin(), atoms.end(), a) - atoms.begin());
      adds = adds || !covered[i];
      covered[i] = true;
    }
    if (adds) kids.push_back(or_nodes_[c].ref);
  }

  // Leftover disjuncts: service rules fuse into one bitmap leaf, undirected
  // asn terms into one AS-set leaf, the rest lower one by one.
  std::vector<std::pair<const ProtoPred*, const PortPred*>> rules;
  std::vector<std::uint32_t> asns;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (covered[i]) continue;
    const Expr& d = *items[i].second;
    if (const auto rule = detail::service_rule(d); rule.first != nullptr) {
      rules.push_back(rule);
      continue;
    }
    const auto* ap = std::get_if<AsnPred>(&d.node);
    if (ap != nullptr && ap->dir == Direction::kEither) {
      asns.insert(asns.end(), ap->asns.begin(), ap->asns.end());
      continue;
    }
    kids.push_back(lower(d));
  }
  if (!rules.empty()) kids.push_back(leaf_service(rules));
  if (!asns.empty()) kids.push_back(leaf_asn(Direction::kEither, std::move(asns)));
  const Ref ref = combine(Op::kOr, std::move(kids));
  or_nodes_.push_back({std::move(atoms), ref});
  return ref;
}

void FusedPlan::rebuild_asn_index() {
  std::map<std::uint32_t, std::vector<std::uint64_t>> rows;
  asn_words_ = static_cast<std::uint32_t>((asn_sets_.size() + 63) / 64);
  for (std::size_t s = 0; s < asn_sets_.size(); ++s) {
    for (const std::uint32_t v : asn_sets_[s]) {
      auto& row = rows[v];
      row.resize(asn_words_, 0);
      row[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
  }
  asn_rows_.assign(asn_words_, 0);  // row 0: member of no set
  std::size_t slots = 4;
  while (slots < rows.size() * 2) slots *= 2;
  asn_index_.assign(slots, {kEmptyKey, 0});
  asn_index_cap_ = static_cast<std::uint32_t>(slots - 1);
  for (const auto& [v, row] : rows) {
    std::uint32_t h = (v * 2654435761u) & asn_index_cap_;
    while (asn_index_[h].first != kEmptyKey) h = (h + 1) & asn_index_cap_;
    asn_index_[h] = {v, asn_words_ == 1 ? row.front() : asn_rows_.size()};
    asn_rows_.insert(asn_rows_.end(), row.begin(), row.end());
  }
}

std::uint64_t FusedPlan::asn_lookup(std::uint32_t asn) const noexcept {
  std::uint32_t h = (asn * 2654435761u) & asn_index_cap_;
  while (true) {
    const auto& [key, value] = asn_index_[h];
    if (key == asn) return value;
    if (key == kEmptyKey) return 0;
    h = (h + 1) & asn_index_cap_;
  }
}

// ---- evaluation -----------------------------------------------------------

template <class Emit>
void FusedPlan::run(std::span<const flow::FlowRecord> records,
                    const FlowColumns& cols, Emit&& emit) const {
  Scratch& scr = g_scratch;
  scr.cols.resize(nodes_.size() * kWords);
  const bool with_as = needs_as();
  const std::size_t aw = asn_words_;
  if (with_as) {
    scr.src_mask.resize(kChunk * aw);
    scr.dst_mask.resize(kChunk * aw);
  }
  std::uint64_t* const colv = scr.cols.data();
  const auto col = [colv](Ref r) { return colv + (r >> 1) * kWords; };

  for (std::size_t base = 0; base < records.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, records.size() - base);
    const std::size_t words = (n + 63) / 64;
    const flow::FlowRecord* recs = records.data() + base;
    const std::uint32_t* svc =
        needs_service_ ? cols.service.data() + base : nullptr;
    if (with_as) {
      // One index probe per endpoint per record, whatever the set count.
      const std::uint32_t* sas = cols.src_as.data() + base;
      const std::uint32_t* das = cols.dst_as.data() + base;
      if (aw == 1) {
        for (std::size_t i = 0; i < n; ++i) {
          scr.src_mask[i] = asn_lookup(sas[i]);
          scr.dst_mask[i] = asn_lookup(das[i]);
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t* srow = asn_rows_.data() + asn_lookup(sas[i]);
          const std::uint64_t* drow = asn_rows_.data() + asn_lookup(das[i]);
          std::copy(srow, srow + aw, scr.src_mask.data() + i * aw);
          std::copy(drow, drow + aw, scr.dst_mask.data() + i * aw);
        }
      }
    }

    // Topological order by construction: every node's children were
    // interned before it.
    for (std::size_t ni = 0; ni < nodes_.size(); ++ni) {
      const Node& nd = nodes_[ni];
      std::uint64_t* c = colv + ni * kWords;
      switch (nd.op) {
        case Op::kProto: {
          const ProtoBitmap& bm = proto_sets_[nd.a];
          fill_bits(c, n, [&](std::size_t i) {
            const auto v = static_cast<std::uint8_t>(recs[i].protocol);
            return (bm[v >> 6] >> (v & 63)) & 1;
          });
          break;
        }
        case Op::kPort: {
          const detail::PortBitmap& bm = *port_sets_[nd.a];
          if (nd.dir == Direction::kSrc) {
            fill_bits(c, n, [&](std::size_t i) {
              return detail::has_port(bm, recs[i].src_port);
            });
          } else if (nd.dir == Direction::kDst) {
            fill_bits(c, n, [&](std::size_t i) {
              return detail::has_port(bm, recs[i].dst_port);
            });
          } else {
            fill_bits(c, n, [&](std::size_t i) {
              return detail::has_port(bm, static_cast<std::uint16_t>(svc[i]));
            });
          }
          break;
        }
        case Op::kNet: {
          const detail::NetSet& set = net_sets_[nd.a];
          const Direction dir = nd.dir;
          fill_bits(c, n, [&](std::size_t i) {
            bool p = false;
            if (dir != Direction::kDst) p = detail::in_net_set(set, recs[i].src_addr);
            if (!p && dir != Direction::kSrc) {
              p = detail::in_net_set(set, recs[i].dst_addr);
            }
            return p;
          });
          break;
        }
        case Op::kAsn: {
          const std::uint64_t* sm = scr.src_mask.data() + (nd.a >> 6);
          const std::uint64_t* dm = scr.dst_mask.data() + (nd.a >> 6);
          const unsigned sh = nd.a & 63;
          if (nd.dir == Direction::kSrc) {
            fill_bits(c, n, [&](std::size_t i) { return (sm[i * aw] >> sh) & 1; });
          } else if (nd.dir == Direction::kDst) {
            fill_bits(c, n, [&](std::size_t i) { return (dm[i * aw] >> sh) & 1; });
          } else {
            fill_bits(c, n, [&](std::size_t i) {
              return ((sm[i * aw] | dm[i * aw]) >> sh) & 1;
            });
          }
          break;
        }
        case Op::kFlagsAll: {
          const std::uint32_t m = nd.a;
          fill_bits(c, n, [&](std::size_t i) {
            return recs[i].protocol == flow::IpProtocol::kTcp &&
                   (recs[i].tcp_flags & m) == m;
          });
          break;
        }
        case Op::kFlagsAny: {
          const std::uint32_t m = nd.a;
          fill_bits(c, n, [&](std::size_t i) {
            return recs[i].protocol == flow::IpProtocol::kTcp &&
                   (recs[i].tcp_flags & m) != 0;
          });
          break;
        }
        case Op::kRate: {
          const RatePred& rp = rates_[nd.a];
          fill_bits(c, n, [&](std::size_t i) { return detail::eval_rate(rp, recs[i]); });
          break;
        }
        case Op::kService: {
          const ServiceSet& set = service_sets_[nd.a];
          fill_bits(c, n, [&](std::size_t i) {
            const std::uint32_t key = svc[i];
            return detail::has_port(*set.per_proto[(key >> 16) & 0xff],
                                    static_cast<std::uint16_t>(key));
          });
          break;
        }
        case Op::kAnd:
        case Op::kOr: {
          const Ref* kid = kids_.data() + nd.a;
          const bool is_and = nd.op == Op::kAnd;
          for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t acc = is_and ? ~std::uint64_t{0} : 0;
            for (std::uint32_t k = 0; k < nd.b; ++k) {
              const std::uint64_t v = col(kid[k])[w] ^ (0 - std::uint64_t{kid[k] & 1});
              acc = is_and ? (acc & v) : (acc | v);
            }
            c[w] = acc;
          }
          break;
        }
      }
    }
    emit(base, n, col);
  }
}

void FusedPlan::evaluate(std::span<const flow::FlowRecord> records,
                         const FlowColumns& cols,
                         std::span<std::uint64_t> masks) const {
  const std::size_t mw = mask_words();
  run(records, cols, [&](std::size_t base, std::size_t n, const auto& col) {
    std::uint64_t* m = masks.data() + base * mw;
    std::fill(m, m + n * mw, std::uint64_t{0});
    for (std::size_t k = 0; k < outputs_.size(); ++k) {
      const Ref out = outputs_[k];
      const std::uint64_t* oc = col(out);
      const std::uint64_t neg = 0 - std::uint64_t{out & 1};
      const std::uint64_t bit = std::uint64_t{1} << (k & 63);
      std::uint64_t* mk = m + (k >> 6);
      for (std::size_t w = 0; w * 64 < n; ++w) {
        std::uint64_t bits = oc[w] ^ neg;
        if (n - w * 64 < 64) bits &= (std::uint64_t{1} << (n - w * 64)) - 1;
        while (bits != 0) {
          const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          mk[i * mw] |= bit;
        }
      }
    }
  });
}

void FusedPlan::evaluate(std::span<const flow::FlowRecord> records,
                         const FlowColumns& cols,
                         std::span<std::uint8_t> hits) const {
  const Ref out = outputs_.front();
  const std::uint64_t neg = 0 - std::uint64_t{out & 1};
  run(records, cols, [&](std::size_t base, std::size_t n, const auto& col) {
    const std::uint64_t* oc = col(out);
    std::uint8_t* h = hits.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = static_cast<std::uint8_t>(((oc[i >> 6] ^ neg) >> (i & 63)) & 1);
    }
  });
}

}  // namespace lockdown::filter
