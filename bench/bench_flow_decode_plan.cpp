// Micro-benchmark for the compiled template decode plans (DESIGN.md
// section 9): the interpreted per-record oracle::decode_field() walk over
// tmpl.fields vs the DecodePlan op loop the decoders now run, on the same
// wire bytes. Prints the measured speedup (the acceptance bar is >= 3x)
// and registers benchmark series for both paths plus the full datagram
// decode that the plans accelerate end to end.
#include <chrono>
#include <random>

#include "bench_common.hpp"
#include "flow/decode_plan.hpp"
#include "flow/field_codec.hpp"
#include "flow/ipfix.hpp"
#include "flow/template_fields.hpp"
#include "flow/wire.hpp"
#include "oracle/decode_oracle.hpp"

namespace lockdown::bench {
namespace {

using flow::DecodePlan;
using flow::FlowRecord;
using flow::TemplateRecord;
using flow::TimeContext;

constexpr std::size_t kRecords = 4096;

[[nodiscard]] std::vector<FlowRecord> make_records(bool v6) {
  std::mt19937_64 rng(7);
  std::vector<FlowRecord> out(kRecords);
  for (FlowRecord& r : out) {
    r.bytes = rng() % (1u << 20);
    r.packets = 1 + rng() % 1000;
    r.protocol = (rng() & 1) ? flow::IpProtocol::kTcp : flow::IpProtocol::kUdp;
    r.tcp_flags = static_cast<std::uint8_t>(rng());
    r.src_port = static_cast<std::uint16_t>(rng());
    r.dst_port = static_cast<std::uint16_t>(rng());
    r.input_if = static_cast<std::uint16_t>(rng());
    r.output_if = static_cast<std::uint16_t>(rng());
    r.src_as = net::Asn(static_cast<std::uint32_t>(rng() % 70000));
    r.dst_as = net::Asn(static_cast<std::uint32_t>(rng() % 70000));
    if (v6) {
      net::Ipv6Address::Bytes b;
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
      r.src_addr = net::Ipv6Address(b);
      for (auto& byte : b) byte = static_cast<std::uint8_t>(rng());
      r.dst_addr = net::Ipv6Address(b);
    } else {
      r.src_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
      r.dst_addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    }
    const std::int64_t start = 1584000000 + static_cast<std::int64_t>(rng() % 86400);
    r.first = net::Timestamp(start);
    r.last = net::Timestamp(start + static_cast<std::int64_t>(rng() % 600));
  }
  return out;
}

/// Encode `records` as back-to-back wire records of `tmpl` (the body of a
/// data set, without set headers -- both decode paths get identical bytes).
[[nodiscard]] std::vector<std::uint8_t> encode_body(
    const TemplateRecord& tmpl, std::span<const FlowRecord> records,
    const TimeContext& tc) {
  flow::WireWriter w;
  for (const FlowRecord& r : records) {
    for (const flow::FieldSpec& f : tmpl.fields) flow::encode_field(w, f, r, tc);
  }
  return w.take();
}

void decode_interpreted(const TemplateRecord& tmpl,
                        std::span<const std::uint8_t> body,
                        const TimeContext& tc, std::vector<FlowRecord>& out) {
  flow::WireReader rd(body);
  const std::size_t rec_len = tmpl.record_length();
  while (rd.remaining() >= rec_len) {
    FlowRecord& r = out.emplace_back();
    for (const flow::FieldSpec& f : tmpl.fields) oracle::decode_field(rd, f, r, tc);
  }
}

// The decoders' shipped data-set loop: one appending columnar
// decode_batch call over the set's contiguous records.
void decode_planned(const DecodePlan& plan, std::span<const std::uint8_t> body,
                    const TimeContext& tc, std::vector<FlowRecord>& out) {
  plan.decode_batch(body.data(), body.size() / plan.stride(), out, tc);
}

void print_reproduction() {
  std::cout << "=== Compiled decode plans: interpreted vs plan op loop ===\n\n";

  util::Table table({"template", "interpreted ns/rec", "plan ns/rec", "speedup"});
  for (const bool v6 : {false, true}) {
    const TemplateRecord tmpl =
        v6 ? flow::ipfix_v6_template() : flow::ipfix_v4_template();
    const auto records = make_records(v6);
    const TimeContext tc{};
    const auto body = encode_body(tmpl, records, tc);
    const DecodePlan plan = DecodePlan::compile(tmpl);

    std::vector<FlowRecord> a, b;
    a.reserve(kRecords);
    b.reserve(kRecords);
    // One warm-up + sanity pass: both paths must agree byte for byte.
    decode_interpreted(tmpl, body, tc, a);
    decode_planned(plan, body, tc, b);
    if (a != b) {
      std::cout << "ERROR: plan decode diverges from interpreted decode\n";
      return;
    }

    const auto time_ns = [&](auto&& fn) {
      constexpr int kReps = 50;
      std::vector<FlowRecord> sink;
      sink.reserve(kRecords);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kReps; ++i) {
        sink.clear();
        fn(sink);
      }
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(sink.data());
      return std::chrono::duration<double, std::nano>(t1 - t0).count() /
             (kReps * static_cast<double>(kRecords));
    };
    const double interp = time_ns(
        [&](std::vector<FlowRecord>& out) { decode_interpreted(tmpl, body, tc, out); });
    const double planned = time_ns(
        [&](std::vector<FlowRecord>& out) { decode_planned(plan, body, tc, out); });
    table.add_row({v6 ? "IPFIX v6" : "IPFIX v4", fmt(interp, 1), fmt(planned, 1),
                   fmt(interp / planned, 2) + "x"});
  }
  std::cout << table << "\n";
  std::cout << "(acceptance: the plan path must decode at >= 3x the\n"
            << " interpreted rate on the standard templates)\n\n";
}

void BM_DecodeInterpreted(benchmark::State& state) {
  const TemplateRecord tmpl = flow::ipfix_v4_template();
  const auto records = make_records(false);
  const TimeContext tc{};
  const auto body = encode_body(tmpl, records, tc);
  std::vector<FlowRecord> out;
  out.reserve(kRecords);
  for (auto _ : state) {
    out.clear();
    decode_interpreted(tmpl, body, tc, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_DecodeInterpreted)->Unit(benchmark::kMicrosecond);

void BM_DecodePlan(benchmark::State& state) {
  const TemplateRecord tmpl = flow::ipfix_v4_template();
  const auto records = make_records(false);
  const TimeContext tc{};
  const auto body = encode_body(tmpl, records, tc);
  const DecodePlan plan = DecodePlan::compile(tmpl);
  std::vector<FlowRecord> out;
  out.reserve(kRecords);
  for (auto _ : state) {
    out.clear();
    decode_planned(plan, body, tc, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_DecodePlan)->Unit(benchmark::kMicrosecond);

// Full datagram path: header parse, set walk, template cache hit, plan
// decode -- what a collector actually pays per packet.
void BM_DecodeDatagrams(benchmark::State& state) {
  const auto records = make_records(false);
  flow::IpfixEncoder enc(/*observation_domain=*/1);
  const auto datagrams =
      enc.encode(records, flow::batch_export_time(records));
  flow::IpfixDecoder warm;
  for (const auto& d : datagrams) benchmark::DoNotOptimize(warm.decode(d));
  for (auto _ : state) {
    flow::IpfixDecoder dec;
    std::size_t n = 0;
    for (const auto& d : datagrams) {
      const auto msg = dec.decode(d);
      if (msg) n += msg->records.size();
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_DecodeDatagrams)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
