// Micro-benchmark for the compiled filter plans (DESIGN.md §12): the
// tree-walking reference interpreter (oracle::match_reference) vs the
// fused plan's match_batch path, on the paper's Table 1 re-expressed as guarded
// monitoring-object DSL expressions -- the heaviest realistic filter set
// this repo ships (nine classes, each guarded by the union of every
// earlier class). Prints the measured speedup (acceptance bar: >= 5x) and
// the per-object match inventory of the measured slice.
//
// The datagram arms time routing in the regime the collector sees: the
// same records cut into 21-record batches (one MTU-filled IPFIX datagram
// each). The reference is the per-object loop routing ran before the
// fused plan -- every object's match_batch over shared FlowColumns, then
// a hit-sum per object -- against MonitorSet::route_batch, which
// evaluates every distinct predicate once per batch (acceptance bar:
// >= 3x).
#include <chrono>
#include <memory>

#include "analysis/app_filter.hpp"
#include "analysis/table1_dsl.hpp"
#include "bench_common.hpp"
#include "filter/monitor.hpp"
#include "filter/plan.hpp"
#include "oracle/filter_oracle.hpp"

namespace lockdown::bench {
namespace {

using flow::FlowRecord;

/// One lockdown evening at the IXP: a realistic class mix, so every DSL
/// object matches some records and the guards actually short-circuit.
[[nodiscard]] const std::vector<FlowRecord>& records() {
  static const std::vector<FlowRecord> recs = [] {
    const auto vp = synth::build_vantage(synth::VantagePointId::kIxpCe,
                                         registry(), {.seed = 42});
    std::vector<FlowRecord> out;
    analysis::synthesize_through_wire(
        vp, registry(),
        net::TimeRange{net::Timestamp::from_date(net::Date(2020, 3, 25), 19),
                       net::Timestamp::from_date(net::Date(2020, 3, 25), 21)},
        synth_config(600), [&](std::span<const FlowRecord> batch) {
          out.insert(out.end(), batch.begin(), batch.end());
        });
    return out;
  }();
  return recs;
}

[[nodiscard]] const std::vector<filter::CompiledFilter>& filters() {
  static const std::vector<filter::CompiledFilter> fs = [] {
    std::vector<filter::CompiledFilter> out;
    for (const auto& def : analysis::dsl_monitor_definitions(
             analysis::AppClassifier::table1())) {
      out.push_back(
          filter::CompiledFilter::compile(def.expression, &registry().trie()));
    }
    return out;
  }();
  return fs;
}

void match_reference_all(std::span<const FlowRecord> recs,
                         std::vector<std::size_t>& hits) {
  for (std::size_t f = 0; f < filters().size(); ++f) {
    std::size_t n = 0;
    for (const FlowRecord& r : recs) n += oracle::match_reference(filters()[f], r);
    hits[f] = n;
  }
}

void match_plan_all(std::span<const FlowRecord> recs,
                    std::vector<std::uint8_t>& out,
                    std::vector<std::size_t>& hits) {
  // The routing-layer form: filter-independent columns derived once for
  // the batch, shared by every object's plan (what route_batch does).
  static thread_local filter::FlowColumns cols;
  cols.build(recs, &registry().trie());
  for (std::size_t f = 0; f < filters().size(); ++f) {
    filters()[f].match_batch(recs, out, cols);
    std::size_t n = 0;
    for (const std::uint8_t h : out) n += h;
    hits[f] = n;
  }
}

/// Records per batch in the datagram arms: one MTU-filled IPFIX datagram.
constexpr std::size_t kDatagramRecords = 21;

struct ObjectTotals {
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  bool operator==(const ObjectTotals&) const = default;
};

/// Per-datagram routing as it was before the fused plan: shared columns,
/// then one match_batch and one hit-sum per object.
void route_per_object(std::span<const FlowRecord> recs,
                      std::vector<ObjectTotals>& totals) {
  static thread_local filter::FlowColumns cols;
  static thread_local std::vector<std::uint8_t> hits;
  for (std::size_t base = 0; base < recs.size(); base += kDatagramRecords) {
    const auto batch =
        recs.subspan(base, std::min(kDatagramRecords, recs.size() - base));
    cols.build(batch, &registry().trie());
    hits.resize(batch.size());
    for (std::size_t f = 0; f < filters().size(); ++f) {
      filters()[f].match_batch(batch, hits, cols);
      ObjectTotals& t = totals[f];
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (hits[i] == 0) continue;
        ++t.flows;
        t.bytes += batch[i].bytes;
        t.packets += batch[i].packets;
      }
    }
  }
}

void route_fused(filter::MonitorSet& set, std::span<const FlowRecord> recs) {
  for (std::size_t base = 0; base < recs.size(); base += kDatagramRecords) {
    set.route_batch(
        recs.subspan(base, std::min(kDatagramRecords, recs.size() - base)));
  }
}

[[nodiscard]] std::unique_ptr<filter::MonitorSet> table1_monitors() {
  auto set = std::make_unique<filter::MonitorSet>(&registry().trie());
  analysis::add_monitor_definitions(
      *set,
      analysis::dsl_monitor_definitions(analysis::AppClassifier::table1()));
  return set;
}

void print_reproduction() {
  std::cout << "=== Compiled filter plans: tree-walking reference vs "
               "fused-plan batch ===\n\n";
  const auto& recs = records();
  const auto defs =
      analysis::dsl_monitor_definitions(analysis::AppClassifier::table1());

  std::vector<std::size_t> ref_hits(filters().size());
  std::vector<std::size_t> plan_hits(filters().size());
  std::vector<std::uint8_t> out(recs.size());
  match_reference_all(recs, ref_hits);
  match_plan_all(recs, out, plan_hits);
  if (ref_hits != plan_hits) {
    std::cout << "ERROR: plan match diverges from reference match\n";
    return;
  }

  const auto time_ns = [&](auto&& fn) {
    constexpr int kReps = 40;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                   .count()) /
           (kReps * static_cast<double>(recs.size()));
  };
  // Per-datagram routing: both forms must see every object's exact hits
  // before either is timed.
  std::vector<ObjectTotals> per_object(filters().size());
  route_per_object(recs, per_object);
  const auto fused = table1_monitors();
  route_fused(*fused, recs);
  std::size_t k = 0;
  for (const auto& obj : *fused) {
    const ObjectTotals got{obj->flows(), obj->bytes(), obj->packets()};
    if (got != per_object[k] || got.flows != ref_hits[k]) {
      std::cout << "ERROR: fused routing diverges on object " << obj->name()
                << "\n";
      return;
    }
    ++k;
  }

  const double ref_ns = time_ns([&] { match_reference_all(recs, ref_hits); });
  const double plan_ns =
      time_ns([&] { match_plan_all(recs, out, plan_hits); });
  const double per_object_ns = time_ns([&] { route_per_object(recs, per_object); });
  const double fused_ns = time_ns([&] { route_fused(*fused, recs); });

  // Per-object plan times are the marginal cost given shared columns (the
  // routing-layer accounting); the aggregate "plan" line includes the one
  // shared column pass.
  filter::FlowColumns cols;
  cols.build(recs, &registry().trie());
  util::Table table(
      {"object", "nodes", "matches", "share", "ref ns", "plan ns", "speedup"});
  for (std::size_t f = 0; f < defs.size(); ++f) {
    const double fr = time_ns([&] {
      std::size_t n = 0;
      for (const FlowRecord& r : recs) n += oracle::match_reference(filters()[f], r);
      benchmark::DoNotOptimize(n);
    });
    const double fp = time_ns([&] {
      filters()[f].match_batch(recs, out, cols);
      benchmark::DoNotOptimize(out.data());
    });
    table.add_row({defs[f].name, std::to_string(filters()[f].node_count()),
                   std::to_string(plan_hits[f]),
                   pct(100.0 * static_cast<double>(plan_hits[f]) /
                       static_cast<double>(recs.size())),
                   fmt(fr), fmt(fp), fmt(fr / fp)});
  }
  std::cout << table;
  std::cout << "\nrecords: " << recs.size()
            << "  reference: " << fmt(ref_ns) << " ns/rec (all objects)"
            << "  plan: " << fmt(plan_ns) << " ns/rec"
            << "  speedup: " << fmt(ref_ns / plan_ns)
            << "x (acceptance bar: 5x)\n";
  std::cout << "routing " << kDatagramRecords << "-record datagrams: "
            << "per-object loop: " << fmt(per_object_ns) << " ns/rec"
            << "  fused route_batch: " << fmt(fused_ns) << " ns/rec"
            << "  speedup: " << fmt(per_object_ns / fused_ns)
            << "x (acceptance bar: 3x)\n\n";
}

void BM_MatchReference(benchmark::State& state) {
  const auto& recs = records();
  std::vector<std::size_t> hits(filters().size());
  for (auto _ : state) {
    match_reference_all(recs, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_MatchReference)->Unit(benchmark::kMillisecond);

void BM_MatchPlan(benchmark::State& state) {
  const auto& recs = records();
  std::vector<std::uint8_t> out(recs.size());
  std::vector<std::size_t> hits(filters().size());
  for (auto _ : state) {
    match_plan_all(recs, out, hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_MatchPlan)->Unit(benchmark::kMillisecond);

// The full monitoring layer as a daemon drives it: route_batch across all
// Table-1 objects, counters included.
void BM_MonitorRouteBatch(benchmark::State& state) {
  const auto set = table1_monitors();
  const auto& recs = records();
  for (auto _ : state) {
    set->route_batch(recs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_MonitorRouteBatch)->Unit(benchmark::kMillisecond);

// Per-datagram routing, the collector's regime: the pre-fused per-object
// loop (reference) vs the fused route_batch.
void BM_RoutePerObjectDatagrams(benchmark::State& state) {
  const auto& recs = records();
  std::vector<ObjectTotals> totals(filters().size());
  for (auto _ : state) {
    route_per_object(recs, totals);
    benchmark::DoNotOptimize(totals.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_RoutePerObjectDatagrams)->Unit(benchmark::kMillisecond);

void BM_RouteFusedDatagrams(benchmark::State& state) {
  const auto set = table1_monitors();
  const auto& recs = records();
  for (auto _ : state) route_fused(*set, recs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(recs.size()));
}
BENCHMARK(BM_RouteFusedDatagrams)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lockdown::bench

LOCKDOWN_BENCH_MAIN(lockdown::bench::print_reproduction)
