// Golden accept/reject corpus for the filter DSL front-end: every reject
// case pins the exact source position (line:column) and message of the
// FilterError, covering lexer errors, parse errors and the compiler's
// always-false-conjunction diagnostics (DESIGN.md §12).
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <variant>

#include "filter/parser.hpp"
#include "filter/plan.hpp"

namespace lockdown::filter {
namespace {

// --- accept corpus ---------------------------------------------------------

TEST(FilterParser, AcceptCorpusCompiles) {
  const char* corpus[] = {
      "proto tcp",
      "proto TCP",  // values are case-insensitive (keywords are not)
      "proto tcp,udp and port 443",
      "proto 47",
      "src port 1024-65535",
      "dst port 443,8443",
      "port 80 or port 8080",
      "not (proto udp or proto icmp)",
      "src net 10.0.0.0/8,192.168.0.0/16",
      "net 2001:db8::/32",
      "dst net 203.0.113.7",  // bare address = host prefix
      "asn 3320,as15169",
      "src asn AS64500 and dst asn 64501",
      "tcp-flags syn,ack",
      "tcp-flags any rst,fin",
      "tcp-flags 0x12",
      "bytes > 1m and packets <= 1k",
      "bps >= 1g or pps != 0",
      "bytes > 100 and bytes < 200",
      "proto tcp and tcp-flags syn",
      // Same-axis conjunctions that are satisfiable:
      "src port 80 and dst port 443",       // different directions
      "src port 80 or src port 443",        // or, not and
      "not src port 80 and src port 443",   // negated operand is exempt
      "asn 3320 and asn 15169",             // either-endpoint: two-valued
      "net 10.0.0.0/8 and net 192.0.2.0/24",  // either-endpoint nets
      "src net 10.0.0.0/8 and src net 10.1.0.0/16",  // overlapping
      "proto udp and dst port 1194,4500,500  # openvpn + ipsec-nat",
      "src port 80\n# comment line\nor dst port 80",
  };
  for (const char* source : corpus) {
    EXPECT_NO_THROW({
      const CompiledFilter f = CompiledFilter::compile(source);
      EXPECT_GT(f.node_count(), 0u) << source;
    }) << source;
  }
}

TEST(FilterParser, PrecedenceNotBindsTighterThanAndThanOr) {
  // "a or b and not c" parses as a or (b and (not c)).
  const ExprPtr root = parse_filter("port 1 or port 2 and not port 3");
  const auto* orx = std::get_if<OrExpr>(&root->node);
  ASSERT_NE(orx, nullptr);
  EXPECT_NE(std::get_if<PortPred>(&orx->lhs->node), nullptr);
  const auto* andx = std::get_if<AndExpr>(&orx->rhs->node);
  ASSERT_NE(andx, nullptr);
  EXPECT_NE(std::get_if<NotExpr>(&andx->rhs->node), nullptr);
}

TEST(FilterParser, ListSugarAndRanges) {
  const ExprPtr root = parse_filter("dst port 443,8443,27000-27031");
  const auto* port = std::get_if<PortPred>(&root->node);
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->dir, Direction::kDst);
  ASSERT_EQ(port->ranges.size(), 3u);
  EXPECT_EQ(port->ranges[0], (std::pair<std::uint16_t, std::uint16_t>{443, 443}));
  EXPECT_EQ(port->ranges[2],
            (std::pair<std::uint16_t, std::uint16_t>{27000, 27031}));
}

TEST(FilterParser, BareAddressDefaultsToHostPrefix) {
  const ExprPtr root = parse_filter("net 203.0.113.7 or net 2001:db8::1");
  const auto* orx = std::get_if<OrExpr>(&root->node);
  ASSERT_NE(orx, nullptr);
  const auto* v4 = std::get_if<NetPred>(&orx->lhs->node);
  ASSERT_NE(v4, nullptr);
  ASSERT_EQ(v4->v4.size(), 1u);
  EXPECT_EQ(v4->v4[0].length(), 32);
  const auto* v6 = std::get_if<NetPred>(&orx->rhs->node);
  ASSERT_NE(v6, nullptr);
  ASSERT_EQ(v6->v6.size(), 1u);
  EXPECT_EQ(v6->v6[0].length(), 128);
}

// --- reject corpus ---------------------------------------------------------

struct RejectCase {
  const char* source;
  std::uint32_t line;
  std::uint32_t column;
  const char* message;  // exact detail() text
};

// The printed parameter becomes the test's ctest name (gtest_discover_tests
// substitutes it for the index), so it must not depend on the addresses of
// the string literals: gtest's default byte dump would make every build
// register different names.
void PrintTo(const RejectCase& c, std::ostream* os) {
  *os << c.line << ':' << c.column << " \"";
  for (const char* p = c.source; *p != '\0'; ++p) {
    if (*p == '\n') {
      *os << "\\n";
    } else {
      *os << *p;
    }
  }
  *os << '"';
}

class FilterParserReject : public ::testing::TestWithParam<RejectCase> {};

TEST_P(FilterParserReject, FailsAtExactPosition) {
  const RejectCase& c = GetParam();
  try {
    (void)CompiledFilter::compile(c.source);
    FAIL() << "expected FilterError for: " << c.source;
  } catch (const FilterError& e) {
    EXPECT_EQ(e.loc().line, c.line) << c.source << "\n  what(): " << e.what();
    EXPECT_EQ(e.loc().column, c.column)
        << c.source << "\n  what(): " << e.what();
    EXPECT_EQ(e.detail(), c.message) << c.source;
    // what() leads with the position, ready for an origin prefix.
    EXPECT_EQ(std::string(e.what()),
              e.loc().to_string() + ": " + e.detail());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FilterParserReject,
    ::testing::Values(
        // lexer
        RejectCase{"!", 1, 1, "unexpected character '!' (did you mean '!='?)"},
        RejectCase{"asn &", 1, 5, "unexpected character '&'"},
        // parser
        RejectCase{"", 1, 1, "empty filter expression"},
        RejectCase{"   # just a comment", 1, 20, "empty filter expression"},
        RejectCase{"port", 1, 5,
                   "expected a port number or range, got end of expression"},
        RejectCase{"src 80", 1, 5,
                   "expected 'port', 'net' or 'asn' after 'src', got '80'"},
        RejectCase{"port 70000", 1, 6, "port 70000 out of range (max 65535)"},
        RejectCase{"port 443-80", 1, 6, "empty port range 443-80 (low > high)"},
        RejectCase{"proto http", 1, 7,
                   "unknown protocol 'http' (expected tcp, udp, icmp, gre, esp "
                   "or a number)"},
        RejectCase{"net 10.0.0.1/8", 1, 5,
                   "host bits set in 10.0.0.1/8 (the enclosing network is "
                   "10.0.0.0/8)"},
        RejectCase{"net 300.1.2.3", 1, 5, "malformed IPv4 address '300.1.2.3'"},
        RejectCase{"(port 443 or port 80", 1, 21,
                   "expected ')' to close '(' at 1:1, got end of expression"},
        RejectCase{"port 443 and and", 1, 14,
                   "expected a filter term, got 'and'"},
        RejectCase{"port 80 81", 1, 9,
                   "expected 'and', 'or' or end of expression, got '81'"},
        RejectCase{"tcp-flags 0", 1, 1,
                   "tcp-flags mask is empty (matches nothing)"},
        RejectCase{"tcp-flags wat", 1, 11,
                   "unknown TCP flag 'wat' (expected fin, syn, rst, psh, ack, "
                   "urg, ece or cwr)"},
        RejectCase{"bytes 100", 1, 7,
                   "expected a comparison operator after 'bytes', got '100'"},
        RejectCase{"bytes >", 1, 8, "expected a number, got end of expression"},
        RejectCase{"bps > 10x", 1, 7, "expected a number, got '10x'"},
        // multi-line positions (the --monitor-file case)
        RejectCase{"port 443\nand proto tcp\nand port 80-20", 3, 10,
                   "empty port range 80-20 (low > high)"},
        // compiler degeneracy diagnostics
        RejectCase{"src port 80 and src port 443", 1, 17,
                   "always-false conjunction: 'src port' terms at 1:1 and 1:17 "
                   "share no port"},
        RejectCase{"port 80 and port 443", 1, 13,
                   "always-false conjunction: 'port' terms at 1:1 and 1:13 "
                   "share no port"},
        RejectCase{"proto tcp and proto udp", 1, 15,
                   "always-false conjunction: 'proto' terms at 1:1 and 1:15 "
                   "share no protocol"},
        RejectCase{"proto udp and tcp-flags syn", 1, 15,
                   "always-false conjunction: 'tcp-flags' at 1:15 requires tcp "
                   "but 'proto' at 1:1 excludes it"},
        RejectCase{"src asn 100 and src asn 200", 1, 17,
                   "always-false conjunction: 'src asn' terms at 1:1 and 1:17 "
                   "share no AS number"},
        RejectCase{"src net 10.0.0.0/8 and src net 192.168.0.0/16", 1, 24,
                   "always-false conjunction: 'src net' terms at 1:1 and 1:24 "
                   "share no address"},
        RejectCase{"bytes > 1m and bytes < 1k", 1, 16,
                   "always-false conjunction: 'bytes' thresholds at 1:1 and "
                   "1:16 cannot both hold"},
        // conjunction checks flatten nested and-chains
        RejectCase{"dst port 443 and proto udp and dst port 80", 1, 32,
                   "always-false conjunction: 'dst port' terms at 1:1 and 1:32 "
                   "share no port"}));

}  // namespace
}  // namespace lockdown::filter
