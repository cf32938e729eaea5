// Checked whole-file writes for the CLIs' outputs (CSV tables, trace
// images, span traces). stdio buffers small writes, so a full disk or a
// broken device often surfaces only at fflush/fclose: every step is
// checked and the first failure is reported.
#pragma once

#include <cstddef>
#include <string>

namespace lockdown::util {

/// Write `size` bytes to `path`, replacing the file. Returns an empty
/// string on success, else the strerror of the fopen, fwrite, fflush or
/// fclose that failed first.
[[nodiscard]] std::string write_whole_file(const std::string& path,
                                           const void* data, std::size_t size);

}  // namespace lockdown::util
