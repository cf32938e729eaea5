// Substrate micro-benchmarks: the per-operation costs that determine how
// far this pipeline scales -- LPM lookups, codec encode/decode, hashing,
// anonymization, synthesis. No figure to reproduce here; this is the
// performance page of the library.
#include "bench_common.hpp"
#include "flow/anonymizer.hpp"
#include "net/prefix_trie.hpp"
#include "util/rng.hpp"
#include "util/siphash.hpp"

namespace lockdown::bench {
namespace {

using net::Date;
using net::TimeRange;

void print_reproduction() {
  std::cout << "=== Substrate micro-benchmarks ===\n"
            << "(no paper figure; per-operation costs of the pipeline --\n"
            << " see the google-benchmark output below)\n\n";
}

void BM_Micro_TrieLookup(benchmark::State& state) {
  const auto& reg = registry();
  util::Rng rng(1);
  // Probe addresses inside announced space (the hot path).
  std::vector<net::Ipv4Address> probes;
  const auto& all = reg.all();
  for (int i = 0; i < 4096; ++i) {
    probes.push_back(all[rng.uniform_u64(all.size())].host(rng.uniform_u64(10000)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.resolve(probes[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Micro_TrieLookup);

void BM_Micro_SipHash(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::siphash24({1, 2}, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Micro_SipHash)->Arg(16)->Arg(64)->Arg(1024);

void BM_Micro_AnonymizeV4(benchmark::State& state) {
  const flow::Anonymizer anon(
      {1, 2}, static_cast<flow::AnonymizationMode>(state.range(0)));
  std::uint32_t x = 0x0a000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon.anonymize(net::Ipv4Address(x++)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Micro_AnonymizeV4)
    ->Arg(static_cast<int>(flow::AnonymizationMode::kFullHash))
    ->Arg(static_cast<int>(flow::AnonymizationMode::kPrefixPreserving));

void BM_Micro_CodecEncodeDecode(benchmark::State& state) {
  const auto protocol = static_cast<flow::ExportProtocol>(state.range(0));
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(isp.model, registry(),
                                     {.connections_per_hour = 400});
  const auto records = synth.collect(
      TimeRange{net::Timestamp::from_date(Date(2020, 3, 25), 20),
                net::Timestamp::from_date(Date(2020, 3, 25), 21)});
  for (auto _ : state) {
    const auto out = flow::export_and_collect(protocol, records,
                                              flow::batch_export_time(records));
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Micro_CodecEncodeDecode)
    ->Arg(static_cast<int>(flow::ExportProtocol::kNetflowV5))
    ->Arg(static_cast<int>(flow::ExportProtocol::kNetflowV9))
    ->Arg(static_cast<int>(flow::ExportProtocol::kIpfix))
    ->Unit(benchmark::kMillisecond);

void BM_Micro_SynthesizeHour(benchmark::State& state) {
  const auto isp = synth::build_vantage(synth::VantagePointId::kIspCe, registry(),
                                        {.seed = 42, .enterprise_transit = false});
  const synth::FlowSynthesizer synth(
      isp.model, registry(),
      {.connections_per_hour = static_cast<double>(state.range(0))});
  for (auto _ : state) {
    std::size_t n = 0;
    synth.synthesize(TimeRange{net::Timestamp::from_date(Date(2020, 3, 25), 20),
                               net::Timestamp::from_date(Date(2020, 3, 25), 21)},
                     [&](const flow::FlowRecord&) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_Micro_SynthesizeHour)->Arg(500)->Arg(5000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
