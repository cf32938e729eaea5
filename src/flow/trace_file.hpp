// Binary flow-trace persistence, in the spirit of nfcapd/nfdump capture
// files: collectors at the paper's vantage points spool decoded records to
// disk and the analysis jobs read them back later. The format is
// self-describing and versioned:
//
//   file   := header block*
//   header := magic "LDFT" u16 version u16 flags u32 record_count_hint
//   block  := u32 record_count, record_count * record
//   record := fixed 58-byte v4 layout or 82-byte v6 layout, tagged
//
// Records are written big-endian via the same WireWriter/WireReader used
// by the codecs; readers are bounds-checked and fail soft on truncation
// (everything decoded before the damage is returned).
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

/// Parse a trace image; nullopt if the header is not a valid trace.
[[nodiscard]] std::optional<TraceReadResult> read_trace(
    std::span<const std::uint8_t> image);

/// Read a trace file from disk; nullopt on I/O error or bad header.
[[nodiscard]] std::optional<TraceReadResult> read_trace_file(
    const std::string& path);

}  // namespace lockdown::flow
