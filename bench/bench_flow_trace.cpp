// Micro-benchmark for the trace record codec (DESIGN.md section 9): the
// reference WireWriter/WireReader walk (tests/oracle/trace_oracle.hpp), one
// bounds-checked call per field and a fresh vector per record, vs the
// fixed-offset stores and loads of flow::TraceWriter and flow::read_trace,
// over the same 4096-record IXP-CE slice. The slice is what the collector
// spools: lockdown-evening IXP-CE traffic ordered by flow start. Prints the
// measured speedups and registers one reference/fixed pair per direction.
#include <algorithm>
#include <array>
#include <chrono>

#include "bench_common.hpp"
#include "flow/trace_file.hpp"
#include "oracle/trace_oracle.hpp"

namespace lockdown::bench {
namespace {

using flow::FlowRecord;
using net::Date;
using net::TimeRange;
using net::Timestamp;

constexpr std::size_t kRecords = 4096;

/// The first kRecords IXP-CE records of 2020-03-25 from 16:00, in flow
/// start order.
[[nodiscard]] const std::vector<FlowRecord>& slice() {
  static const std::vector<FlowRecord> records = [] {
    const auto ixp = synth::build_vantage(synth::VantagePointId::kIxpCe,
                                          registry(), {.seed = 42});
    const synth::FlowSynthesizer synth(ixp.model, registry(), synth_config(400));
    const Timestamp begin = Timestamp::from_date(Date(2020, 3, 25)).plus(16 * 3600);
    auto out = synth.collect(TimeRange{begin, begin.plus(3600)});
    std::stable_sort(out.begin(), out.end(),
                     [](const FlowRecord& a, const FlowRecord& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; out.size() < kRecords; ++i) out.push_back(out[i]);
    out.resize(kRecords);
    return out;
  }();
  return records;
}

/// Keeps the last 8 finished images alive, so the gated write pair times
/// the two codecs and not the allocator. This is not the collector's
/// pattern: `live_collector`'s slice sink writes each image out and frees
/// it at once, and freeing a ~250 KB image makes glibc map and unmap it
/// around its 128 KiB mmap threshold on every slice -- on a 4-vCPU VM a
/// larger cost than the fixed-offset codec itself. BM_TraceWriteFixedFreeEach
/// keeps that cost visible (CHANGES.md, FOUND on `TraceWriter::finish`).
class HeldImages {
 public:
  void keep(std::vector<std::uint8_t>&& image) {
    benchmark::DoNotOptimize(image.data());
    held_[next_++ % held_.size()] = std::move(image);
    benchmark::ClobberMemory();
  }

 private:
  std::array<std::vector<std::uint8_t>, 8> held_;
  std::size_t next_ = 0;
};

/// The collector's spool pattern: one append per record into a long-lived
/// writer, one finished image per slice.
[[nodiscard]] std::vector<std::uint8_t> write_fixed(flow::TraceWriter& writer) {
  for (const FlowRecord& r : slice()) writer.append(r);
  return writer.finish();
}

/// The reference spool: one WireWriter per record, copied into the image.
[[nodiscard]] std::vector<std::uint8_t> write_reference() {
  flow::WireWriter header;
  header.u32(flow::kTraceMagic);
  header.u16(flow::kTraceVersion);
  header.u16(0);
  header.u32(static_cast<std::uint32_t>(slice().size()));
  std::vector<std::uint8_t> image = header.take();
  for (const FlowRecord& r : slice()) {
    flow::WireWriter w;
    oracle::write_trace_record(w, r);
    image.insert(image.end(), w.data().begin(), w.data().end());
  }
  return image;
}

void print_reproduction() {
  std::cout << "=== Trace record codec: WireWriter/WireReader walk vs "
               "fixed-offset layout ===\n\n";
  flow::TraceWriter writer;
  const auto image = write_fixed(writer);
  const auto reference = write_reference();
  const auto read_back = flow::read_trace(image);
  const auto read_ref = oracle::read_trace(reference);
  if (image != reference || !read_back || !read_ref ||
      read_back->records != read_ref->records ||
      read_back->records.size() != kRecords) {
    std::cout << "ERROR: the fixed-layout codec diverges from the reference\n";
    return;
  }

  const auto time_ns = [](auto&& fn) {
    constexpr int kReps = 50;
    fn();  // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           (kReps * static_cast<double>(kRecords));
  };
  HeldImages held;
  const double write_ref = time_ns([&] { held.keep(write_reference()); });
  const double write_fix = time_ns([&] { held.keep(write_fixed(writer)); });
  const double read_ref_ns = time_ns([&] {
    const auto out = oracle::read_trace(image);
    benchmark::DoNotOptimize(out->records.data());
  });
  const double read_fix_ns = time_ns([&] {
    const auto out = flow::read_trace(image);
    benchmark::DoNotOptimize(out->records.data());
  });

  util::Table table({"direction", "reference ns/rec", "fixed ns/rec", "speedup"});
  table.add_row({"write", fmt(write_ref, 1), fmt(write_fix, 1),
                 fmt(write_ref / write_fix, 2) + "x"});
  table.add_row({"read", fmt(read_ref_ns, 1), fmt(read_fix_ns, 1),
                 fmt(read_ref_ns / read_fix_ns, 2) + "x"});
  std::cout << table << "\n";
  std::cout << "(" << kRecords << " IXP-CE records, " << image.size()
            << "-byte image; both paths produce the same bytes and read\n"
            << " back the same records -- checked above before timing)\n\n";
}

// --- registered series: one reference/fixed pair per direction ---------------
// The perf-smoke CI job gates the within-file write ratio.

void BM_TraceWriteReference(benchmark::State& state) {
  HeldImages held;
  for (auto _ : state) held.keep(write_reference());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_TraceWriteReference)->Unit(benchmark::kMicrosecond);

void BM_TraceWriteFixed(benchmark::State& state) {
  flow::TraceWriter writer;
  HeldImages held;
  for (auto _ : state) held.keep(write_fixed(writer));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_TraceWriteFixed)->Unit(benchmark::kMicrosecond);

// The collector's pattern: each finished image is freed at once. Not gated.
void BM_TraceWriteFixedFreeEach(benchmark::State& state) {
  flow::TraceWriter writer;
  for (auto _ : state) {
    const auto image = write_fixed(writer);
    benchmark::DoNotOptimize(image.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_TraceWriteFixedFreeEach)->Unit(benchmark::kMicrosecond);

void BM_TraceReadReference(benchmark::State& state) {
  const auto image = write_reference();
  for (auto _ : state) {
    const auto out = oracle::read_trace(image);
    benchmark::DoNotOptimize(out->records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_TraceReadReference)->Unit(benchmark::kMicrosecond);

void BM_TraceReadFixed(benchmark::State& state) {
  const auto image = write_reference();
  for (auto _ : state) {
    const auto out = flow::read_trace(image);
    benchmark::DoNotOptimize(out->records.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_TraceReadFixed)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
