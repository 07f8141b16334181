#include "device/sysfs.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace bofl::device {

namespace {

constexpr double kKiloHertzPerGigaHertz = 1e6;  // GHz -> kHz
constexpr double kHertzPerGigaHertz = 1e9;      // GHz -> Hz

std::string format_integer(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.0f", value);
  return buffer;
}

}  // namespace

void SysfsTree::write(const std::string& path, const std::string& value) {
  files_[path] = value;
}

const std::string& SysfsTree::read(const std::string& path) const {
  const auto it = files_.find(path);
  BOFL_REQUIRE(it != files_.end(), "no such sysfs file: " + path);
  return it->second;
}

SysfsDvfsController::SysfsDvfsController(const DvfsSpace& space)
    : space_(space) {
  apply(space_.max_config());
}

void SysfsDvfsController::pin(const char* min_path, const char* max_path,
                              const char* cur_path, double value) {
  const std::string text = format_integer(value);
  // Kernel ordering quirk: raising min above the current max is rejected on
  // real systems, so write max first, then min, like production DVFS tools.
  tree_.write(max_path, text);
  tree_.write(min_path, text);
  tree_.write(cur_path, text);
}

void SysfsDvfsController::apply(const DvfsConfig& config) {
  pin(kCpuMinPath, kCpuMaxPath, kCpuCurPath,
      space_.cpu_freq(config).value() * kKiloHertzPerGigaHertz);
  pin(kGpuMinPath, kGpuMaxPath, kGpuCurPath,
      space_.gpu_freq(config).value() * kHertzPerGigaHertz);
  pin(kMemMinPath, kMemMaxPath, kMemCurPath,
      space_.mem_freq(config).value() * kHertzPerGigaHertz);
}

}  // namespace bofl::device
