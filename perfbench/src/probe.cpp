#include "probe.hpp"

#include <dirent.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>

#include "obs/build_info.hpp"

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return std::nan("");
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const std::size_t idx =
      rank <= 1.0 ? 0 : std::min(v_.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v_[idx];
}

double Samples::iqm() const {
  if (v_.size() < 4) return median();
  (void)quantile(0.5);  // sorts
  const std::size_t lo = v_.size() / 4;
  const std::size_t hi = v_.size() - lo;
  return std::accumulate(v_.begin() + static_cast<std::ptrdiff_t>(lo),
                         v_.begin() + static_cast<std::ptrdiff_t>(hi), 0.0) /
         static_cast<double>(hi - lo);
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Samples::mean() const {
  return v_.empty() ? std::nan("") : sum() / static_cast<double>(v_.size());
}

std::vector<pid_t> list_threads() {
  std::vector<pid_t> out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (const dirent* e = readdir(dir)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid > 0) out.push_back(static_cast<pid_t>(tid));
  }
  closedir(dir);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<pid_t> new_threads(const std::vector<pid_t>& before) {
  std::vector<pid_t> out;
  for (const pid_t tid : list_threads()) {
    if (!std::binary_search(before.begin(), before.end(), tid)) out.push_back(tid);
  }
  return out;
}

pid_t this_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

SchedTime sched_time(const std::vector<pid_t>& tids) {
  SchedTime total;
  for (const pid_t tid : tids) {
    const std::string path = "/proc/self/task/" + std::to_string(tid) + "/schedstat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long run = 0, wait = 0;
    if (std::fscanf(f, "%llu %llu", &run, &wait) == 2) {
      total.run_ns += run;
      total.wait_ns += wait;
    }
    std::fclose(f);
  }
  return total;
}

std::uint64_t steal_ns() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  stat >> cpu;
  for (auto& x : v) stat >> x;
  if (!stat || cpu != "cpu") return 0;
  const long hz = sysconf(_SC_CLK_TCK);
  return v[7] * (1'000'000'000ULL / static_cast<unsigned long long>(hz > 0 ? hz : 100));
}

double steal_share(std::uint64_t since, double wall_ns) {
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return wall_ns <= 0 ? 0.0 : static_cast<double>(steal_ns() - since) / (wall_ns * cpus);
}

std::uint64_t process_cpu_ns() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return tv_ns(u.ru_utime) + tv_ns(u.ru_stime);
}

namespace {

/// A "Vm...:  N kB" line of /proc/self/status, MiB; NaN if absent.
double status_mib(const std::string& field) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

}  // namespace

PeakRssGrowth::PeakRssGrowth() {
  (void)malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM to the current RSS
  clear.close();
  base_mib_ = clear ? status_mib("VmRSS") : std::nan("");
}

double PeakRssGrowth::growth_mib() const { return status_mib("VmHWM") - base_mib_; }

PinToCpu::PinToCpu(std::size_t nth) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int cpus = CPU_COUNT(&saved_);
  if (cpus <= 1) return;
  std::size_t want = nth % static_cast<std::size_t>(cpus);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    break;
  }
}

PinToCpu::~PinToCpu() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

// 2^18 slots (~10 MB) per traced thread holds every span of a traced run
// but the report's per-slice spans, which only its first traced pass emits.
SpanLog::SpanLog() : tracer_(std::size_t{1} << 18) {}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

bool SpanLog::write(const std::string& path) {
  const std::string json = tracer_.chrome_json();
  std::ofstream out(path, std::ios::binary);
  out << json;
  return static_cast<bool>(out);
}

std::string HostStamp::json() const {
  return "{\"nproc\":" + std::to_string(nproc) + ",\"cpu_model\":\"" +
         json_escape(cpu_model) + "\",\"kernel\":\"" + json_escape(kernel) +
         "\",\"compiler\":\"" + json_escape(compiler) + "\",\"build_type\":\"" +
         json_escape(build_type) + "\",\"git_sha\":\"" + json_escape(git_sha) +
         "\"}";
}

HostStamp host_stamp() {
  HostStamp h;
  h.nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  utsname u{};
  if (uname(&u) == 0) h.kernel = u.release;
  const auto& info = lockdown::obs::build_info();
  h.compiler = info.compiler;
  h.git_sha = info.git_sha;
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "nan";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_table(const std::string& title,
                 const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> width;
  for (const auto& row : rows) {
    if (width.size() < row.size()) width.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  std::cout << title << "\n";
  for (const auto& row : rows) {
    std::cout << "  ";
    for (std::size_t i = 0; i < row.size(); ++i) {
      const std::string& cell = row[i];
      if (i == 0) {
        std::cout << cell << std::string(width[i] - cell.size(), ' ');
      } else {
        std::cout << "  " << std::string(width[i] - cell.size(), ' ') << cell;
      }
    }
    std::cout << "\n";
  }
}

}  // namespace perfbench
