#include "telemetry/process.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace bofl::telemetry {

namespace {

/// Parse a "VmHWM:   123456 kB" style line from /proc/self/status.
std::uint64_t proc_status_kb(const char* field) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t field_len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      unsigned long long value = 0;
      if (std::sscanf(line + field_len, " %llu", &value) == 1) {
        kb = value;
      }
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)field;
  return 0;
#endif
}

std::uint64_t rusage_max_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace

std::uint64_t peak_rss_bytes() {
  const std::uint64_t kb = proc_status_kb("VmHWM:");
  if (kb > 0) {
    return kb * 1024;
  }
  return rusage_max_rss_bytes();
}

}  // namespace bofl::telemetry
