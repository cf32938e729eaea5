// Compiled decode plans (flow/decode_plan.hpp): differential tests pinning
// the plan op loop to the per-field reference decode
// (oracle::decode_field, tests/oracle/) on standard and hostile
// templates, plus the cache-lifecycle contract (refresh recompiles,
// withdrawal erases plan and template together).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "flow/decode_plan.hpp"
#include "flow/field_codec.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/template_fields.hpp"
#include "flow/wire.hpp"
#include "oracle/decode_oracle.hpp"

namespace lockdown::flow {
namespace {

using net::Date;
using net::Timestamp;

/// The interpreted reference: oracle::decode_field() over the template,
/// exactly as the decoders ran before plans existed.
FlowRecord decode_interpreted(const TemplateRecord& tmpl,
                              std::span<const std::uint8_t> raw,
                              const TimeContext& tc) {
  WireReader rd(raw);
  FlowRecord r;
  for (const FieldSpec& f : tmpl.fields) oracle::decode_field(rd, f, r, tc);
  return r;
}

FlowRecord decode_planned(const TemplateRecord& tmpl,
                          std::span<const std::uint8_t> raw,
                          const TimeContext& tc) {
  const DecodePlan plan = DecodePlan::compile(tmpl);
  FlowRecord r;
  plan.decode(raw.data(), r, tc);
  return r;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void expect_identical_decode(const TemplateRecord& tmpl, const TimeContext& tc,
                             int rounds, std::uint64_t seed) {
  const std::size_t stride = tmpl.record_length();
  ASSERT_GT(stride, 0u);
  const DecodePlan plan = DecodePlan::compile(tmpl);
  ASSERT_EQ(plan.stride(), stride);
  for (int i = 0; i < rounds; ++i) {
    const auto raw = random_bytes(stride, seed + static_cast<std::uint64_t>(i));
    const FlowRecord a = decode_interpreted(tmpl, raw, tc);
    FlowRecord b;
    plan.decode(raw.data(), b, tc);
    EXPECT_EQ(a, b) << "template " << tmpl.template_id << " round " << i;
  }
}

TEST(DecodePlan, MatchesInterpretedOnStandardTemplates) {
  const TimeContext absolute{};
  const TimeContext uptime{3'600'000, 1'585'000'000};
  expect_identical_decode(ipfix_v4_template(), absolute, 64, 1);
  expect_identical_decode(ipfix_v6_template(), absolute, 64, 2);
  expect_identical_decode(netflow_v9_v4_template(), uptime, 64, 3);
}

TEST(DecodePlan, BatchDecodeMatchesPerRecordDecode) {
  // The columnar decode_batch must be result-identical to decode() record
  // by record -- across tile boundaries (301 is not a multiple of the tile
  // size) and on hostile layouts (duplicates, odd widths, unknown IEs).
  TemplateRecord hostile;
  hostile.template_id = 399;
  hostile.fields = {
      {FieldId::kSourceTransportPort, 2},
      {FieldId::kSourceTransportPort, 2},
      {static_cast<FieldId>(60000), 5},  // unknown IE: skip-listed
      {FieldId::kOctetDeltaCount, 3},    // odd width: assigns zero
      {FieldId::kDestinationIpv4Address, 4},
  };
  int seed = 0;
  for (const TemplateRecord& tmpl :
       {ipfix_v4_template(), ipfix_v6_template(), hostile}) {
    const TimeContext tc{};
    const DecodePlan plan = DecodePlan::compile(tmpl);
    constexpr std::size_t kCount = 301;
    const auto body =
        random_bytes(kCount * plan.stride(), 77 + static_cast<std::uint64_t>(seed++));

    std::vector<FlowRecord> one_by_one(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      plan.decode(body.data() + i * plan.stride(), one_by_one[i], tc);
    }

    // The appending overload must also leave earlier records untouched.
    std::vector<FlowRecord> batched(3);
    batched[0].bytes = 11;
    batched[1].bytes = 22;
    batched[2].bytes = 33;
    plan.decode_batch(body.data(), kCount, batched, tc);
    ASSERT_EQ(batched.size(), kCount + 3) << "template " << tmpl.template_id;
    EXPECT_EQ(batched[0].bytes, 11u);
    EXPECT_EQ(batched[2].bytes, 33u);
    EXPECT_TRUE(std::equal(one_by_one.begin(), one_by_one.end(),
                           batched.begin() + 3))
        << "template " << tmpl.template_id;

    // And the raw pointer overload, into a pre-sized span.
    std::vector<FlowRecord> spanned(kCount);
    plan.decode_batch(body.data(), kCount, spanned.data(), tc);
    EXPECT_EQ(spanned, one_by_one) << "template " << tmpl.template_id;
  }
}

TEST(DecodePlan, DuplicateFieldsOverwriteInTemplateOrder) {
  TemplateRecord tmpl;
  tmpl.template_id = 400;
  tmpl.fields = {
      {FieldId::kSourceTransportPort, 2},
      {FieldId::kSourceTransportPort, 2},  // later value must win
      {FieldId::kOctetDeltaCount, 4},
      {FieldId::kOctetDeltaCount, 8},
  };
  expect_identical_decode(tmpl, TimeContext{}, 32, 4);

  // Spot-check the direction: the second occurrence is what survives.
  std::vector<std::uint8_t> raw = {0x00, 0x01, 0x00, 0x02, 0, 0, 0, 9,
                                   0,    0,    0,    0,    0, 0, 0, 7};
  const FlowRecord r = decode_planned(tmpl, raw, TimeContext{});
  EXPECT_EQ(r.src_port, 2);
  EXPECT_EQ(r.bytes, 7u);
}

TEST(DecodePlan, OddWidthNumericFieldsAssignZero) {
  // oracle::decode_field's read_uint() skips widths outside {1,2,4,8} and returns
  // 0 -- which it still assigns. The plan must do the same, not leave the
  // destination untouched.
  TemplateRecord tmpl;
  tmpl.template_id = 401;
  tmpl.fields = {
      {FieldId::kOctetDeltaCount, 3},
      {FieldId::kPacketDeltaCount, 5},
      {FieldId::kSourceTransportPort, 9},
      {FieldId::kDestinationTransportPort, 2},
  };
  expect_identical_decode(tmpl, TimeContext{}, 32, 5);

  auto raw = random_bytes(tmpl.record_length(), 99);
  FlowRecord r;
  r.bytes = 123;     // must be overwritten with zero
  r.packets = 456;   // ditto
  r.src_port = 789;  // ditto
  DecodePlan::compile(tmpl).decode(raw.data(), r, TimeContext{});
  EXPECT_EQ(r.bytes, 0u);
  EXPECT_EQ(r.packets, 0u);
  EXPECT_EQ(r.src_port, 0);
  EXPECT_EQ(r.dst_port, (raw[17] << 8) | raw[18]);
}

TEST(DecodePlan, ZeroWidthFieldsStillAssignZero) {
  TemplateRecord tmpl;
  tmpl.template_id = 402;
  tmpl.fields = {
      {FieldId::kOctetDeltaCount, 0},
      {FieldId::kSourceTransportPort, 2},
  };
  EXPECT_EQ(DecodePlan::compile(tmpl).stride(), 2u);
  expect_identical_decode(tmpl, TimeContext{}, 16, 6);
}

TEST(DecodePlan, WrongLengthIpv6FieldsAreSkippedWithoutAssignment) {
  TemplateRecord tmpl;
  tmpl.template_id = 403;
  tmpl.fields = {
      {FieldId::kSourceIpv6Address, 4},    // not 16: pure skip
      {FieldId::kDestinationIpv6Address, 16},
      {FieldId::kSourceTransportPort, 2},
  };
  expect_identical_decode(tmpl, TimeContext{}, 32, 7);

  const auto raw = random_bytes(tmpl.record_length(), 11);
  const FlowRecord r = decode_planned(tmpl, raw, TimeContext{});
  // src_addr stays default (v4 zero), dst_addr becomes the 16 raw bytes.
  EXPECT_TRUE(r.src_addr.is_v4());
  ASSERT_TRUE(r.dst_addr.is_v6());
  net::Ipv6Address::Bytes expect_dst;
  std::copy(raw.begin() + 4, raw.begin() + 20, expect_dst.begin());
  EXPECT_EQ(r.dst_addr.v6().bytes(), expect_dst);
}

TEST(DecodePlan, UnknownInformationElementsAreSkipListed) {
  TemplateRecord tmpl;
  tmpl.template_id = 404;
  tmpl.fields = {
      {static_cast<FieldId>(999), 6},  // unknown IE: no step, bytes skipped
      {FieldId::kSourceTransportPort, 2},
      {static_cast<FieldId>(888), 3},
      {FieldId::kDestinationTransportPort, 2},
  };
  const DecodePlan plan = DecodePlan::compile(tmpl);
  EXPECT_EQ(plan.stride(), 13u);
  EXPECT_EQ(plan.steps(), 2u);  // only the two ports compile to steps
  expect_identical_decode(tmpl, TimeContext{}, 32, 8);
}

TEST(DecodePlan, MaximumTemplateStrideCompilesWithoutOverflow) {
  // 65535 fields x 65535 bytes is the wire-format ceiling; offsets must
  // not wrap (they stay < 2^32). Compile-only -- no record that large is
  // ever decoded.
  TemplateRecord tmpl;
  tmpl.template_id = 405;
  tmpl.fields.assign(65535, FieldSpec{static_cast<FieldId>(777), 65535});
  tmpl.fields.back() = FieldSpec{FieldId::kSourceTransportPort, 2};
  const DecodePlan plan = DecodePlan::compile(tmpl);
  EXPECT_EQ(plan.stride(), 65534ull * 65535ull + 2ull);
  EXPECT_EQ(plan.steps(), 1u);
}

TEST(DecodePlan, EmptyTemplateCompilesToStrideZero) {
  TemplateRecord tmpl;
  tmpl.template_id = 406;
  const DecodePlan plan = DecodePlan::compile(tmpl);
  EXPECT_EQ(plan.stride(), 0u);
  EXPECT_EQ(plan.steps(), 0u);
}

// --- cache lifecycle ---------------------------------------------------------

std::vector<std::uint8_t> ipfix_message(std::uint32_t domain,
                                        const std::function<void(WireWriter&)>& body) {
  WireWriter w;
  w.u16(kIpfixVersion);
  w.u16(0);  // length placeholder
  w.u32(1'585'000'000);
  w.u32(0);  // sequence
  w.u32(domain);
  body(w);
  w.patch_u16(2, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

void write_template(WireWriter& w, const TemplateRecord& tmpl) {
  const std::size_t set_start = w.size();
  w.u16(kIpfixTemplateSetId);
  w.u16(0);
  w.u16(tmpl.template_id);
  w.u16(static_cast<std::uint16_t>(tmpl.fields.size()));
  for (const FieldSpec& f : tmpl.fields) {
    w.u16(static_cast<std::uint16_t>(f.id));
    w.u16(f.length);
  }
  w.patch_u16(set_start + 2, static_cast<std::uint16_t>(w.size() - set_start));
}

TEST(DecodePlanLifecycle, WithdrawalErasesPlanAndSkipsData) {
  IpfixDecoder dec;
  const auto announce = ipfix_message(7, [](WireWriter& w) {
    TemplateRecord tmpl;
    tmpl.template_id = 300;
    tmpl.fields = {{FieldId::kSourceTransportPort, 2},
                   {FieldId::kDestinationTransportPort, 2}};
    write_template(w, tmpl);
  });
  ASSERT_TRUE(dec.decode(announce));
  ASSERT_NE(dec.decode_plan(7, 300), nullptr);
  EXPECT_EQ(dec.decode_plan(7, 300)->stride(), 4u);
  EXPECT_EQ(dec.decode_plan(8, 300), nullptr);  // other domain unaffected

  IpfixEncoder enc(7);
  const auto withdrawal = enc.encode_template_withdrawal(
      Timestamp::from_date(Date(2020, 3, 25)), 300);
  const auto msg = dec.decode(withdrawal);
  ASSERT_TRUE(msg);
  EXPECT_EQ(msg->template_withdrawals, 1u);
  EXPECT_EQ(dec.decode_plan(7, 300), nullptr);

  // Data referencing the withdrawn template must be skipped, not decoded.
  const auto data = ipfix_message(7, [](WireWriter& w) {
    w.u16(300);
    w.u16(8);  // set header + one 4-byte record
    w.u16(1234);
    w.u16(80);
  });
  const auto after = dec.decode(data);
  ASSERT_TRUE(after);
  EXPECT_TRUE(after->records.empty());
  EXPECT_EQ(after->skipped_data_sets, 1u);
}

TEST(DecodePlanLifecycle, TemplateRefreshRecompilesPlan) {
  IpfixDecoder dec;
  // Layout A: src_port then dst_port.
  const auto msg_a = ipfix_message(9, [](WireWriter& w) {
    TemplateRecord tmpl;
    tmpl.template_id = 310;
    tmpl.fields = {{FieldId::kSourceTransportPort, 2},
                   {FieldId::kDestinationTransportPort, 2}};
    write_template(w, tmpl);
    w.u16(310);
    w.u16(8);
    w.u16(1111);
    w.u16(2222);
  });
  const auto a = dec.decode(msg_a);
  ASSERT_TRUE(a);
  ASSERT_EQ(a->records.size(), 1u);
  EXPECT_EQ(a->records[0].src_port, 1111);
  EXPECT_EQ(a->records[0].dst_port, 2222);

  // Refresh with swapped layout: the recompiled plan must decode the same
  // bytes into swapped fields. A stale plan would reproduce layout A.
  const auto msg_b = ipfix_message(9, [](WireWriter& w) {
    TemplateRecord tmpl;
    tmpl.template_id = 310;
    tmpl.fields = {{FieldId::kDestinationTransportPort, 2},
                   {FieldId::kSourceTransportPort, 2}};
    write_template(w, tmpl);
    w.u16(310);
    w.u16(8);
    w.u16(1111);
    w.u16(2222);
  });
  const auto b = dec.decode(msg_b);
  ASSERT_TRUE(b);
  ASSERT_EQ(b->records.size(), 1u);
  EXPECT_EQ(b->records[0].dst_port, 1111);
  EXPECT_EQ(b->records[0].src_port, 2222);
}

TEST(DecodePlanLifecycle, NetflowV9CachesPlans) {
  NetflowV9Encoder enc(/*source_id=*/5);
  NetflowV9Decoder dec;
  FlowRecord r;
  r.src_addr = net::Ipv4Address(0x0a000001);
  r.dst_addr = net::Ipv4Address(0x0a000002);
  r.src_port = 40000;
  r.dst_port = 443;
  r.protocol = IpProtocol::kTcp;
  r.bytes = 1000;
  r.packets = 10;
  r.first = Timestamp::from_date(Date(2020, 3, 25), 10);
  r.last = r.first.plus(30);
  const auto packets =
      enc.encode({&r, 1}, Timestamp::from_date(Date(2020, 3, 25), 11));
  ASSERT_FALSE(packets.empty());
  EXPECT_EQ(dec.decode_plan(5, netflow_v9_v4_template().template_id), nullptr);
  const auto pkt = dec.decode(packets[0]);
  ASSERT_TRUE(pkt);
  ASSERT_EQ(pkt->records.size(), 1u);
  const DecodePlan* plan = dec.decode_plan(5, netflow_v9_v4_template().template_id);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->stride(), netflow_v9_v4_template().record_length());
  EXPECT_EQ(pkt->records[0].src_port, r.src_port);
  EXPECT_EQ(pkt->records[0].bytes, r.bytes);
}

}  // namespace
}  // namespace lockdown::flow
