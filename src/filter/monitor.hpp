// Monitoring objects: named compiled filters that every decoded flow batch
// is routed through (xenoeye-style monitoring objects, DESIGN.md §12).
// Each object keeps flows/bytes/packets totals of the records its filter
// matched; a batch is routed to *every* matching object, so overlapping
// objects each see the full traffic they describe. add() also lowers each
// object into one fused multi-output plan (fused.hpp), so route_batch
// evaluates every distinct predicate of the whole set once per batch and
// sums all objects' totals in one pass over per-record object masks.
//
// Thread model: add()/bind_metrics()/unbind_metrics() are wiring-time and
// single-threaded; route_batch() may then be called concurrently from any
// number of threads (the sharded daemon's workers call it per shard batch).
// Counters are relaxed atomics, so sharded totals equal a single decoder's
// for any source mix -- sums are commutative.
//
// Sampler rescaling contract: the flow::sampler stages rescale
// bytes/packets inside each surviving record (and the collector daemon
// can do the same for header-announced intervals via rescale_sampled), so
// those counters are rescaled by construction. Flow *counts* under 1-in-N
// flow sampling are undercounted by N; set set_flow_scale(N) to rescale
// them the same way -- live_collector wires this from --flow-sampling.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "filter/plan.hpp"
#include "flow/flow_record.hpp"
#include "obs/metrics.hpp"

namespace lockdown::filter {

class MonitorSet;

class MonitoringObject {
 public:
  /// Per-batch observer: the records just routed, this object's hit mask
  /// (aligned with `records`, 1 = matched), and the batch's shared derived
  /// columns. Called from route_batch on every batch -- possibly with zero
  /// hits -- on whichever thread routed it, so hooks must be thread-safe
  /// (the streaming window aggregator is). The spans/columns are only
  /// valid for the duration of the call.
  using BatchHook = std::function<void(std::span<const flow::FlowRecord>,
                                       std::span<const std::uint8_t>,
                                       const FlowColumns&)>;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const CompiledFilter& filter() const noexcept { return filter_; }

  /// Wiring-time only (must not race route_batch). One hook per object;
  /// pass an empty function to detach.
  void set_batch_hook(BatchHook hook) { batch_hook_ = std::move(hook); }
  [[nodiscard]] bool has_batch_hook() const noexcept {
    return static_cast<bool>(batch_hook_);
  }

  [[nodiscard]] std::uint64_t flows() const noexcept {
    return flows_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

 private:
  friend class MonitorSet;
  MonitoringObject(std::string name, CompiledFilter filter)
      : name_(std::move(name)), filter_(std::move(filter)) {}

  std::string name_;
  CompiledFilter filter_;
  BatchHook batch_hook_;
  std::atomic<std::uint64_t> flows_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> packets_{0};
  // Bound /metrics mirrors (null when not bound).
  obs::Counter* flow_counter_ = nullptr;
  obs::Counter* byte_counter_ = nullptr;
  obs::Counter* packet_counter_ = nullptr;
};

class MonitorSet {
 public:
  /// `trie` is handed to every compiled filter for asn-term resolution
  /// (may be null; must outlive the set).
  explicit MonitorSet(const AsnTrie* trie = nullptr) : trie_(trie) {}

  /// Compile `expression` and register it under `name`. Throws FilterError
  /// for expression problems and std::invalid_argument for name problems
  /// (duplicate registration, invalid characters) -- the same contract as
  /// AppClassifier's duplicate-filter rejection.
  MonitoringObject& add(std::string_view name, std::string_view expression);

  /// Parse `name = expression` definition lines (one per line; blank lines
  /// and '#' comments ignored) -- the --monitor-file format. Every failure
  /// -- expression errors and name problems (duplicate, invalid
  /// characters) alike -- throws FilterError anchored to the offending
  /// file line; `origin` is prefixed to positions ("monitors.conf:3:14:").
  void add_definitions(std::string_view text, std::string_view origin);

  /// Match `records` against every object and accumulate per-object
  /// flow/byte/packet totals (and their bound /metrics mirrors), then call
  /// every object's batch hook with its 0/1 hit span. Emits one
  /// filter.route_batch trace span per batch.
  void route_batch(std::span<const flow::FlowRecord> records);

  /// Span-shaped sink matching flow::Collector::BatchSink, for wiring as a
  /// daemon batch observer.
  [[nodiscard]] std::function<void(std::span<const flow::FlowRecord>)>
  batch_sink() {
    return [this](std::span<const flow::FlowRecord> batch) {
      route_batch(batch);
    };
  }

  /// Register one counter bundle per object in `registry`
  /// (monitor_matched_{flows,bytes,packets}_total{object="<name>"}) and
  /// seed it with counts accumulated so far. The registry must stay alive
  /// until unbind_metrics().
  void bind_metrics(obs::Registry& registry);

  /// Remove this set's counters from the bound registry (clean daemon
  /// shutdown: a later /metrics scrape no longer shows the objects). Must
  /// not race route_batch() -- stop the daemon first.
  void unbind_metrics();

  /// Rescale factor for matched-flow counts under 1-in-N flow sampling.
  void set_flow_scale(double scale) noexcept { flow_scale_ = scale; }

  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] bool empty() const noexcept { return objects_.empty(); }
  [[nodiscard]] const MonitoringObject* find(std::string_view name) const;
  /// The fused plan route_batch evaluates (output k is the k-th object).
  [[nodiscard]] const FusedPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] auto begin() const noexcept { return objects_.begin(); }
  [[nodiscard]] auto end() const noexcept { return objects_.end(); }

 private:
  const AsnTrie* trie_;
  // unique_ptr: objects hold atomics (not movable) and handed-out
  // references must survive vector growth.
  std::vector<std::unique_ptr<MonitoringObject>> objects_;
  // Every object's filter; output k is objects_[k].
  FusedPlan plan_;
  obs::Registry* registry_ = nullptr;
  double flow_scale_ = 1.0;
};

}  // namespace lockdown::filter
