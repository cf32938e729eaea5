#include "util/file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace lockdown::util {

std::string write_whole_file(const std::string& path, const void* data,
                             std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return std::strerror(errno);
  int err = 0;
  if (std::fwrite(data, 1, size, f) != size || std::fflush(f) != 0) err = errno;
  if (std::fclose(f) != 0 && err == 0) err = errno;
  return err == 0 ? std::string() : std::strerror(err);
}

}  // namespace lockdown::util
