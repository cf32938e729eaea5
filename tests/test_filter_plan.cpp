// Differential fuzz of the compiled filter plan: 1M+ biased-random flow
// records -- raw and round-tripped through all three export codecs -- are
// matched by CompiledFilter::match_batch, by its single-record match(), and
// by the tree-walking oracle::match_reference (tests/oracle/); any
// disagreement is a compiler bug (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "filter/plan.hpp"
#include "flow/flow_record.hpp"
#include "flow/pipeline.hpp"
#include "net/prefix_trie.hpp"
#include "oracle/filter_oracle.hpp"
#include "util/rng.hpp"

namespace lockdown::filter {
namespace {

using flow::ExportProtocol;
using flow::FlowRecord;
using flow::IpProtocol;
using net::Asn;
using net::Date;
using net::Ipv4Address;
using net::Ipv6Address;
using net::Timestamp;

/// Filters chosen to exercise every step kind (proto eq/set, port eq/set
/// both raw-direction and service, nets v4+v6, asn eq/set with and without
/// trie fallback, tcp-flags all/any, every rate field) plus short-circuit
/// structure (and/or/not nesting).
const char* const kFilters[] = {
    "proto tcp",
    "proto udp,icmp",
    "port 443",
    "dst port 443,8443",
    "src port 1024-65535",
    "proto udp and port 443",
    "src net 10.0.0.0/8",
    "net 198.51.100.0/24,203.0.113.0/24",
    "dst net 2001:db8::/32",
    "asn 64700",
    "src asn 64700,3320 and not dst asn 64701",
    "tcp-flags syn,ack",
    "tcp-flags any rst,fin",
    "bytes > 1m",
    "pps <= 100",
    "bps > 1m and packets > 10",
    "proto tcp and dst port 443 and tcp-flags ack and bytes > 100k",
    "not (proto udp or src port 53) and (asn 15169 or net 10.0.0.0/8)",
};

/// Trie for the AsView-style fallback: only consulted when the exporter
/// annotation is zero.
[[nodiscard]] AsnTrie make_trie() {
  AsnTrie trie;
  trie.insert(net::Ipv4Prefix::parse("10.0.0.0/8").value(), Asn(64700));
  trie.insert(net::Ipv4Prefix::parse("198.51.100.0/24").value(), Asn(64701));
  trie.insert(net::Ipv4Prefix::parse("203.0.113.0/24").value(), Asn(3320));
  return trie;
}

/// Biased generator: values cluster around the filters' criteria so both
/// branches of every predicate fire often, instead of the reject path
/// dominating 99.9% of uniformly random records.
[[nodiscard]] FlowRecord fuzz_record(util::Rng& rng, bool v4_only) {
  static constexpr IpProtocol kProtos[] = {IpProtocol::kTcp, IpProtocol::kUdp,
                                           IpProtocol::kIcmp, IpProtocol::kGre,
                                           IpProtocol::kEsp};
  static constexpr std::uint16_t kPorts[] = {80, 443, 8443, 1194, 4500,
                                             500,  53, 1023, 1024, 27015};
  static constexpr std::uint32_t kV4Bases[] = {
      0x0a000000,  // 10.0.0.0/8
      0xc6336400,  // 198.51.100.0/24
      0xcb007100,  // 203.0.113.0/24
      0xc0a80000,  // 192.168.0.0/16
  };
  static constexpr std::uint32_t kAsns[] = {0, 0, 64700, 64701, 3320, 15169,
                                            65001};

  FlowRecord r;
  r.protocol = kProtos[rng.uniform_u64(std::size(kProtos))];
  const bool ports_apply =
      r.protocol == IpProtocol::kTcp || r.protocol == IpProtocol::kUdp;
  const auto port = [&]() -> std::uint16_t {
    if (!ports_apply) return 0;
    if (rng.bernoulli(0.7)) return kPorts[rng.uniform_u64(std::size(kPorts))];
    return static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  };
  r.src_port = port();
  r.dst_port = port();
  const auto addr = [&]() -> net::IpAddress {
    if (!v4_only && rng.bernoulli(0.2)) {
      const std::uint64_t high =
          rng.bernoulli(0.6) ? 0x20010db800000000ULL  // 2001:db8::/32
                             : rng.uniform_u64(~std::uint64_t{0});
      return Ipv6Address::from_halves(high, rng.uniform_u64(~std::uint64_t{0}));
    }
    const std::uint32_t base =
        rng.bernoulli(0.8)
            ? kV4Bases[rng.uniform_u64(std::size(kV4Bases))]
            : static_cast<std::uint32_t>(rng.uniform_u64(1ULL << 32));
    return Ipv4Address(base + static_cast<std::uint32_t>(rng.uniform_u64(256)));
  };
  r.src_addr = addr();
  r.dst_addr = addr();
  // Zero annotations force the trie fallback (only defined for v4).
  r.src_as = Asn(kAsns[rng.uniform_u64(std::size(kAsns))]);
  r.dst_as = Asn(kAsns[rng.uniform_u64(std::size(kAsns))]);
  r.tcp_flags = r.protocol == IpProtocol::kTcp
                    ? static_cast<std::uint8_t>(rng.uniform_u64(256))
                    : 0;
  // Bias byte/packet counts around the rate thresholds (1m bytes, 100 pps).
  r.bytes = static_cast<std::uint64_t>(rng.uniform(1.0, 4e6));
  r.packets = static_cast<std::uint64_t>(rng.uniform(1.0, 2e4));
  r.first = Timestamp::from_date(Date(2020, 3, 25), 10)
                .plus(rng.uniform_int(0, 600));
  r.last = r.first.plus(rng.uniform_int(0, 120));
  r.input_if = 1;
  r.output_if = 2;
  return r;
}

/// Match `records` with every filter through the batch plan, the
/// single-record plan and the oracle (ASSERT_* needs a void function).
void differential_check(const std::vector<CompiledFilter>& filters,
                        std::span<const FlowRecord> records, const char* stream,
                        std::vector<std::size_t>& accept_counts) {
  std::vector<std::uint8_t> out(records.size());
  for (std::size_t f = 0; f < filters.size(); ++f) {
    filters[f].match_batch(records, out);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const bool expected = oracle::match_reference(filters[f], records[i]);
      ASSERT_EQ(out[i] != 0, expected)
          << stream << " record " << i << " disagrees on filter: "
          << filters[f].source();
      ASSERT_EQ(filters[f].match(records[i]), expected)
          << stream << " record " << i << " (single-record match) disagrees "
          << "on filter: " << filters[f].source();
      accept_counts[f] += out[i];
    }
  }
}

TEST(FilterPlanFuzz, MillionFlowDifferentialAcrossCodecs) {
  const AsnTrie trie = make_trie();
  std::vector<CompiledFilter> filters;
  for (const char* source : kFilters) {
    filters.push_back(CompiledFilter::compile(source, &trie));
  }
  std::vector<std::size_t> accepts(filters.size(), 0);

  // Chunked so the working set stays small: generate, round-trip through a
  // codec, compare, repeat. NetFlow v5 and v9 are v4-only in this repo, so
  // their streams draw from the v4-only generator; the raw and IPFIX
  // streams carry IPv6 records too.
  struct Stream {
    const char* name;
    ExportProtocol protocol;
    bool raw;  // no codec round-trip: keeps v6 + full-width fields exact
    std::size_t records;
  };
  const Stream streams[] = {
      {"raw", ExportProtocol::kIpfix, true, 250'000},
      {"netflow-v5", ExportProtocol::kNetflowV5, false, 250'000},
      {"netflow-v9", ExportProtocol::kNetflowV9, false, 250'000},
      {"ipfix", ExportProtocol::kIpfix, false, 250'000},
  };
  constexpr std::size_t kChunk = 25'000;

  util::Rng rng(0x10cdf11ULL);
  std::size_t total_records = 0;
  for (const Stream& s : streams) {
    const bool v4_only = !s.raw && s.protocol != ExportProtocol::kIpfix;
    for (std::size_t done = 0; done < s.records; done += kChunk) {
      std::vector<FlowRecord> chunk;
      chunk.reserve(kChunk);
      for (std::size_t i = 0; i < kChunk; ++i) {
        chunk.push_back(fuzz_record(rng, v4_only));
      }
      if (!s.raw) {
        chunk = flow::export_and_collect(s.protocol, chunk,
                                         flow::batch_export_time(chunk));
        ASSERT_EQ(chunk.size(), kChunk) << s.name;
      }
      ASSERT_NO_FATAL_FAILURE(
          differential_check(filters, chunk, s.name, accepts));
      total_records += chunk.size();
    }
  }
  EXPECT_GE(total_records, 1'000'000u);
  // The bias worked: every filter accepted and rejected some records.
  for (std::size_t f = 0; f < filters.size(); ++f) {
    EXPECT_GT(accepts[f], 0u) << kFilters[f];
    EXPECT_LT(accepts[f], total_records) << kFilters[f];
  }
}

TEST(FilterPlan, SingleMatchAgreesWithBatch) {
  const AsnTrie trie = make_trie();
  const CompiledFilter f = CompiledFilter::compile(
      "proto tcp and dst port 443 or asn 64700", &trie);
  util::Rng rng(7);
  std::vector<FlowRecord> records;
  for (int i = 0; i < 1000; ++i) records.push_back(fuzz_record(rng, false));
  const auto batch = f.match_batch(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(f.match(records[i]), batch[i] != 0) << i;
    EXPECT_EQ(f.match(records[i]), oracle::match_reference(f, records[i])) << i;
  }
}

TEST(FilterPlan, ServicePortSemantics) {
  // `port N` matches the *service* port (the numerically smaller non-zero
  // port) -- the AppClassifier convention, not either-endpoint.
  const CompiledFilter f = CompiledFilter::compile("port 443");
  FlowRecord r;
  r.protocol = IpProtocol::kTcp;
  r.src_addr = Ipv4Address(0x0a000001);
  r.dst_addr = Ipv4Address(0x0a000002);
  r.src_port = 40000;
  r.dst_port = 443;
  EXPECT_TRUE(f.match(r));
  EXPECT_TRUE(oracle::match_reference(f, r));
  std::swap(r.src_port, r.dst_port);
  EXPECT_TRUE(f.match(r));
  EXPECT_TRUE(oracle::match_reference(f, r));
  r.src_port = 80;  // service port is now 80, not 443
  r.dst_port = 443;
  EXPECT_FALSE(f.match(r));
  EXPECT_FALSE(oracle::match_reference(f, r));
}

TEST(FilterPlan, TcpFlagsImplyTcp) {
  const CompiledFilter f = CompiledFilter::compile("tcp-flags syn");
  FlowRecord r;
  r.src_addr = Ipv4Address(1);
  r.dst_addr = Ipv4Address(2);
  r.protocol = IpProtocol::kUdp;
  r.tcp_flags = 0x02;  // nonsense on UDP; the term must not match
  EXPECT_FALSE(f.match(r));
  EXPECT_FALSE(oracle::match_reference(f, r));
  r.protocol = IpProtocol::kTcp;
  EXPECT_TRUE(f.match(r));
  EXPECT_TRUE(oracle::match_reference(f, r));
}

TEST(FilterPlan, AsnFallsBackToTrieOnlyWhenUnannotated) {
  const AsnTrie trie = make_trie();
  const CompiledFilter f = CompiledFilter::compile("src asn 64700", &trie);
  FlowRecord r;
  r.protocol = IpProtocol::kTcp;
  r.src_addr = Ipv4Address(0x0a010203);  // 10.1.2.3, trie says 64700
  r.dst_addr = Ipv4Address(0xcb007101);
  EXPECT_TRUE(f.match(r));
  EXPECT_TRUE(oracle::match_reference(f, r));
  r.src_as = Asn(65001);  // annotation wins over the trie
  EXPECT_FALSE(f.match(r));
  EXPECT_FALSE(oracle::match_reference(f, r));
  // Without a trie, unannotated records resolve to AS 0.
  const CompiledFilter bare = CompiledFilter::compile("src asn 64700");
  r.src_as = Asn(0);
  EXPECT_FALSE(bare.match(r));
  EXPECT_FALSE(oracle::match_reference(bare, r));
}

}  // namespace
}  // namespace lockdown::filter
