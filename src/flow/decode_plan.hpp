// Compiled per-template decode plans. An interpreted decode walks
// `tmpl.fields` for every data record and re-dispatches a double switch
// (field id, then width) per field; at collector rates that
// dispatch is the dominant per-record cost. A DecodePlan is compiled once
// when a template enters the cache: a flat array of {src_offset, width,
// op} steps with the record stride precomputed, so per-record decoding is
// a single bounds check followed by a tight op loop of big-endian loads at
// fixed offsets. Unknown information elements and skip-only widths never
// make it into the step list -- their bytes are covered by the precomputed
// offsets.
//
// Semantics are byte-identical to the per-field reference decode
// (tests/oracle/decode_oracle.hpp) over the template (the differential
// tests in test_flow_decode_plan.cpp pin this down),
// including the hostile corners: duplicate fields overwrite in template
// order, numeric fields with widths outside {1,2,4,8} assign zero, IPv6
// fields with a width other than 16 are skipped without assignment.
//
// Lifecycle: plans live next to their TemplateRecord in the decoders'
// per-(source, template-id) caches -- and therefore in the sharded
// runtime's per-shard caches. A template refresh overwrites the cache
// entry and recompiles the plan; an RFC 7011 §8.1 withdrawal erases entry
// and plan together. A plan never outlives its template.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/field_codec.hpp"
#include "flow/flow_record.hpp"
#include "flow/template_fields.hpp"

namespace lockdown::flow {

class DecodePlan {
 public:
  DecodePlan() = default;

  /// Compile `tmpl` into a plan. Always succeeds; a template that yields
  /// no decodable records (stride 0) compiles to an empty plan with
  /// stride() == 0, which callers must treat as undecodable exactly like
  /// TemplateRecord::record_length() == 0.
  [[nodiscard]] static DecodePlan compile(const TemplateRecord& tmpl);

  /// Total wire bytes of one data record (== record_length() of the
  /// template, including skipped fields).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

  /// Number of compiled steps (skip-only fields compile to none).
  [[nodiscard]] std::size_t steps() const noexcept { return steps_.size(); }

  /// Decode one record. `rec` must point at stride() readable bytes; the
  /// caller performs that single bounds check (the decoders' record loops
  /// already guarantee it via `remaining() >= stride()`).
  void decode(const std::uint8_t* rec, FlowRecord& out,
              const TimeContext& tc) const noexcept;

  /// Decode `n` back-to-back records starting at `base` (n * stride()
  /// readable bytes) into out[0..n). Result-identical to calling decode()
  /// n times, but columnar: each step dispatches once and then runs a
  /// tight fixed-width load loop across every record, so the op and width
  /// dispatch amortizes over the whole data set instead of recurring per
  /// record. This is the loop the decoders run per data set.
  void decode_batch(const std::uint8_t* base, std::size_t n, FlowRecord* out,
                    const TimeContext& tc) const noexcept;

  /// Append-decode `n` back-to-back records onto `out` (one reservation up
  /// front). Equivalent to resize-then-decode_batch, but each tile of
  /// records is default-constructed and immediately decoded while still
  /// L1-resident, instead of streaming the whole appended range through
  /// the cache twice. This is the form the decoders call per data set.
  void decode_batch(const std::uint8_t* base, std::size_t n,
                    std::vector<FlowRecord>& out, const TimeContext& tc) const;

 private:
  /// Tile size for the columnar passes: ~128 records x (sizeof(FlowRecord)
  /// + a typical stride) stays well inside a 32 KiB L1D.
  static constexpr std::size_t kTileRecords = 128;

  /// One columnar pass over a tile of records small enough that the tile's
  /// input bytes and output records stay L1-resident across all steps;
  /// decode_batch() walks the full batch tile by tile so the repeated
  /// per-step passes never stream the whole batch through the cache.
  void decode_tile(const std::uint8_t* base, std::size_t n, FlowRecord* out,
                   const TimeContext& tc) const noexcept;
  /// Destination of one step: one per field id the reference decode handles.
  enum class Op : std::uint8_t {
    kBytes,
    kPackets,
    kProtocol,
    kTcpFlags,
    kSrcPort,
    kDstPort,
    kInputIf,
    kOutputIf,
    kSrcAs,
    kDstAs,
    kSrcV4,
    kDstV4,
    kSrcV6,
    kDstV6,
    kFirstUptime,
    kLastUptime,
    kFirstAbsolute,
    kLastAbsolute,
  };

  struct Step {
    // Max template is 65535 fields x 65535 bytes < 2^32, so offsets fit.
    std::uint32_t src_offset = 0;
    // 1/2/4/8 (numeric load), 16 (IPv6 copy), or 0: a numeric field with a
    // width the reference decode cannot load, which assigns zero.
    std::uint16_t width = 0;
    Op op = Op::kBytes;
  };

  std::vector<Step> steps_;
  std::size_t stride_ = 0;
};

/// A cached template plus its compiled plan; the value type of the
/// decoders' template caches so refresh/withdrawal invalidate both
/// together.
struct CachedTemplate {
  TemplateRecord record;
  DecodePlan plan;

  [[nodiscard]] static CachedTemplate make(TemplateRecord tmpl) {
    DecodePlan plan = DecodePlan::compile(tmpl);
    return CachedTemplate{std::move(tmpl), std::move(plan)};
  }
};

}  // namespace lockdown::flow
