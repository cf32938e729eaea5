// Export/collect pipeline: ties an encoder, an in-memory "wire", and a
// decoder into the path every synthesized flow takes before analysis. This
// mirrors the real deployments: router exports NetFlow/IPFIX datagrams ->
// collector parses them -> records land in the analysis store. Running the
// benches through this path (rather than handing FlowRecords straight to
// the analyses) is what makes the codec layer load-bearing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "flow/anonymizer.hpp"
#include "flow/decode_error.hpp"
#include "flow/flow_record.hpp"
#include "flow/ipfix.hpp"
#include "flow/netflow_v5.hpp"
#include "flow/netflow_v9.hpp"
#include "flow/packet_arena.hpp"

namespace lockdown::flow {

enum class ExportProtocol : std::uint8_t {
  kNetflowV5,
  kNetflowV9,
  kIpfix,
};

[[nodiscard]] constexpr const char* to_string(ExportProtocol p) noexcept {
  switch (p) {
    case ExportProtocol::kNetflowV5: return "NetFlow v5";
    case ExportProtocol::kNetflowV9: return "NetFlow v9";
    case ExportProtocol::kIpfix: return "IPFIX";
  }
  return "?";
}

/// Metric-label-safe spelling of the protocol name.
[[nodiscard]] constexpr const char* protocol_label(ExportProtocol p) noexcept {
  switch (p) {
    case ExportProtocol::kNetflowV5: return "netflow_v5";
    case ExportProtocol::kNetflowV9: return "netflow_v9";
    case ExportProtocol::kIpfix: return "ipfix";
  }
  return "unknown";
}

/// Collector-side statistics. `malformed_packets` stays the total across
/// the error taxonomy (== errors.total()) so existing dashboards keep
/// working; `errors` breaks it down by cause. Sequence fields measure
/// export loss between router and collector: `sequence_lost` is in the
/// protocol's native unit -- export packets for NetFlow v9, flow records
/// for v5 and IPFIX.
struct CollectorStats {
  std::uint64_t packets = 0;
  std::uint64_t malformed_packets = 0;
  std::uint64_t records = 0;
  std::uint64_t templates = 0;
  std::uint64_t template_withdrawals = 0;
  std::uint64_t oversize_fields = 0;
  std::uint64_t sequence_lost = 0;
  std::uint64_t sequence_gaps = 0;
  std::uint64_t sequence_reordered = 0;
  std::uint64_t sequence_resets = 0;
  DecodeErrorCounts errors;

  CollectorStats& operator+=(const CollectorStats& o) noexcept {
    packets += o.packets;
    malformed_packets += o.malformed_packets;
    records += o.records;
    templates += o.templates;
    template_withdrawals += o.template_withdrawals;
    oversize_fields += o.oversize_fields;
    sequence_lost += o.sequence_lost;
    sequence_gaps += o.sequence_gaps;
    sequence_reordered += o.sequence_reordered;
    sequence_resets += o.sequence_resets;
    errors += o.errors;
    return *this;
  }

  friend bool operator==(const CollectorStats&, const CollectorStats&) = default;
};

struct CollectorMetrics;  // registry binding, see collector_metrics.hpp

/// A collector that parses datagrams of one protocol and hands records to a
/// sink. Optionally anonymizes records before the sink sees them, like the
/// on-premise hashing in the paper's ethics setup.
class Collector {
 public:
  using Sink = std::function<void(const FlowRecord&)>;
  /// Batch delivery: one call per decoded datagram instead of one
  /// type-erased call per record. The span is only valid for the duration
  /// of the call. This is the hot-path interface the sharded runtime
  /// workers use; the per-record `Sink` remains for existing callers and
  /// is adapted onto it.
  using BatchSink = std::function<void(std::span<const FlowRecord>)>;

  /// `rescale_sampled`: multiply counters by the exporter-announced
  /// sampling interval (NetFlow v9 options templates, v5 header sampling
  /// field) so downstream volume estimates are unbiased. Off by default --
  /// some pipelines prefer to keep raw sampled counters and scale late.
  ///
  /// `metrics`: optional handle bundle bound against an obs::Registry (see
  /// collector_metrics.hpp). Every stat update is mirrored into it with
  /// relaxed atomic adds; the bundle may be shared across collectors (the
  /// sharded runtime passes one instance to every shard). Must outlive the
  /// collector.
  Collector(ExportProtocol protocol, BatchSink sink,
            const Anonymizer* anonymizer = nullptr, bool rescale_sampled = false,
            const CollectorMetrics* metrics = nullptr)
      : protocol_(protocol), sink_(std::move(sink)), anonymizer_(anonymizer),
        rescale_sampled_(rescale_sampled), metrics_(metrics) {}

  Collector(ExportProtocol protocol, Sink sink,
            const Anonymizer* anonymizer = nullptr, bool rescale_sampled = false,
            const CollectorMetrics* metrics = nullptr)
      : Collector(protocol,
                  BatchSink([s = std::move(sink)](std::span<const FlowRecord> batch) {
                    for (const FlowRecord& r : batch) s(r);
                  }),
                  anonymizer, rescale_sampled, metrics) {}

  /// Parse one datagram; malformed input increments a counter, never throws.
  void ingest(std::span<const std::uint8_t> datagram);

  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }

 private:
  void note_malformed(DecodeError error);
  void note_sequence(const SequenceTracker::Event& ev, std::uint32_t units);

  ExportProtocol protocol_;
  BatchSink sink_;
  const Anonymizer* anonymizer_;
  bool rescale_sampled_;
  const CollectorMetrics* metrics_;
  NetflowV5Decoder v5_;
  NetflowV9Decoder v9_;
  IpfixDecoder ipfix_;
  CollectorStats stats_;
};

/// Round-trip helper: encode `records` with `protocol` and feed the packets
/// through a Collector, returning the decoded records. The benches use this
/// as the "vantage point boundary".
[[nodiscard]] std::vector<FlowRecord> export_and_collect(
    ExportProtocol protocol, std::span<const FlowRecord> records,
    net::Timestamp export_time, const Anonymizer* anonymizer = nullptr,
    CollectorStats* stats_out = nullptr);

/// Encode `records` into `out` (cleared first) with a fresh encoder of the
/// protocol -- the compiled encode_batch path, one contiguous buffer for
/// the whole flush instead of a vector<vector> per datagram. Default
/// EncodeLimits budget every packet to the 1500-byte MTU; pass
/// EncodeLimits::unbudgeted() for the legacy protocol-default chunking.
/// Returns the number of datagrams written.
std::size_t encode_batch_datagrams(ExportProtocol protocol,
                                   std::span<const FlowRecord> records,
                                   net::Timestamp export_time, PacketBatch& out,
                                   const EncodeLimits& limits = {});

/// The natural export timestamp of a batch: just after its newest flow
/// start (sysUptime-relative encodings lose flows stamped later than the
/// export instant, so export after everything in the batch).
[[nodiscard]] net::Timestamp batch_export_time(std::span<const FlowRecord> records);

/// Convenience pump: batches a synthesized stream through the vantage
/// point's wire protocol and hands the collected records to `sink`. Returns
/// collector statistics. This is the standard "vantage point boundary" the
/// examples and benches route every flow through.
class ExportPump {
 public:
  using Sink = std::function<void(const FlowRecord&)>;
  using BatchSink = Collector::BatchSink;

  /// Batch form: collected records reach `sink` one span per decoded
  /// datagram, so span-shaped consumers (the analysis ScanEngine, the
  /// sharded runtime) avoid a type-erased call per record.
  ExportPump(ExportProtocol protocol, BatchSink sink,
             const Anonymizer* anonymizer = nullptr,
             std::size_t batch_size = 4096)
      : protocol_(protocol), sink_(std::move(sink)), anonymizer_(anonymizer),
        batch_size_(batch_size == 0 ? 1 : batch_size) {
    batch_.reserve(batch_size_);
  }

  ExportPump(ExportProtocol protocol, Sink sink,
             const Anonymizer* anonymizer = nullptr,
             std::size_t batch_size = 4096)
      : ExportPump(protocol,
                   BatchSink([s = std::move(sink)](std::span<const FlowRecord> batch) {
                     for (const FlowRecord& r : batch) s(r);
                   }),
                   anonymizer, batch_size) {}

  /// Feed one synthesized record; exports when the batch fills.
  void push(const FlowRecord& r) {
    batch_.push_back(r);
    if (batch_.size() >= batch_size_) flush();
  }

  [[nodiscard]] std::function<void(const FlowRecord&)> as_sink() {
    return [this](const FlowRecord& r) { push(r); };
  }

  /// Export any buffered records. Call once after the stream ends.
  void flush();

  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }

 private:
  ExportProtocol protocol_;
  BatchSink sink_;
  const Anonymizer* anonymizer_;
  std::size_t batch_size_;
  std::vector<FlowRecord> batch_;
  PacketBatch packets_;  // reused across flushes; capacity persists
  CollectorStats stats_;
};

}  // namespace lockdown::flow
