// Binary flow-trace persistence, in the spirit of nfcapd/nfdump capture
// files: collectors at the paper's vantage points spool decoded records to
// disk and the analysis jobs read them back later. The format is
// self-describing and versioned:
//
//   file   := header record*
//   header := magic "LDFT" u16 version u16 flags u32 record_count_hint
//   record := u8 tag, then the tag's fixed body:
//             tag 4: 58-byte v4 layout, tag 6: 82-byte v6 layout
//
// (The layout sizes exclude the tag byte, so a record is 59 or 83 bytes.)
// Both layouts are compiled into fixed-offset big-endian stores and loads
// (DESIGN.md section 9): the writer checks its buffer's room once per
// record and the reader checks bounds once per record. Readers fail soft
// on truncation and on unknown tags (everything decoded before the damage
// is returned).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flow/flow_record.hpp"

namespace lockdown::flow {

inline constexpr std::uint32_t kTraceMagic = 0x4c444654;  // "LDFT"
inline constexpr std::uint16_t kTraceVersion = 1;
inline constexpr std::size_t kTraceHeaderBytes = 12;

/// Record tags and their body sizes (tag byte excluded).
inline constexpr std::uint8_t kTraceTagV4 = 4;
inline constexpr std::uint8_t kTraceTagV6 = 6;
inline constexpr std::size_t kTraceV4Bytes = 58;
inline constexpr std::size_t kTraceV6Bytes = 82;

/// Serialize records into an in-memory trace image.
class TraceWriter {
 public:
  TraceWriter();

  void append(const FlowRecord& record);
  void append(std::span<const FlowRecord> records);

  [[nodiscard]] std::size_t records_written() const noexcept { return count_; }

  /// Finish the image (patches the header) and return the bytes. The
  /// writer is reusable afterwards (starts a new image).
  [[nodiscard]] std::vector<std::uint8_t> finish();

  /// Convenience: write the finished image to a file. Returns an empty
  /// string on success, else the strerror of the failed open, write,
  /// flush or close.
  [[nodiscard]] std::string write_file(const std::string& path);

 private:
  void start();
  std::vector<std::uint8_t> buf_;
  std::size_t count_ = 0;
};

struct TraceReadResult {
  std::vector<FlowRecord> records;
  bool truncated = false;  ///< input ended mid-record; prefix still returned
};

/// Parse a trace image; nullopt if the header is not a valid trace. The
/// header's record-count hint only sizes the result, capped by what the
/// image can hold, so a hostile hint cannot force a large allocation.
[[nodiscard]] std::optional<TraceReadResult> read_trace(
    std::span<const std::uint8_t> image);

/// Read a trace file from disk; nullopt on I/O error or bad header.
[[nodiscard]] std::optional<TraceReadResult> read_trace_file(
    const std::string& path);

}  // namespace lockdown::flow
