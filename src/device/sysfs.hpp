// Simulated sysfs DVFS actuation.
//
// On a real Jetson, BoFL pins operational frequencies by writing the same
// value into the min_freq and max_freq sysfs files of each unit (paper §5.2,
// footnote 6).  This module reproduces that code path against an in-memory
// sysfs tree: string-keyed files, kernel-style units (kHz for cpufreq, Hz
// for devfreq), and snap-to-step semantics on write.  Deploying on real
// hardware means swapping SysfsTree for the actual filesystem.
#pragma once

#include <map>
#include <string>

#include "device/frequency.hpp"

namespace bofl::device {

/// In-memory stand-in for the sysfs filesystem.
class SysfsTree {
 public:
  /// Write `value` to `path`, creating the file if needed.
  void write(const std::string& path, const std::string& value);

  /// Read a file; throws std::invalid_argument if it does not exist.
  [[nodiscard]] const std::string& read(const std::string& path) const;

 private:
  std::map<std::string, std::string> files_;
};

/// Drives the three frequency domains through sysfs file writes.
class SysfsDvfsController {
 public:
  /// Builds the cpufreq/devfreq file layout for `space` and pins the
  /// maximum configuration (the kernel's boot default for performance
  /// governors).  The space reference must outlive the controller.
  explicit SysfsDvfsController(const DvfsSpace& space);

  /// Pin all three units to `config` (writes min_freq and max_freq).
  void apply(const DvfsConfig& config);

  [[nodiscard]] const SysfsTree& tree() const { return tree_; }

  // Canonical file locations (Jetson-style).
  static constexpr const char* kCpuMinPath =
      "/sys/devices/system/cpu/cpufreq/policy0/scaling_min_freq";
  static constexpr const char* kCpuMaxPath =
      "/sys/devices/system/cpu/cpufreq/policy0/scaling_max_freq";
  static constexpr const char* kCpuCurPath =
      "/sys/devices/system/cpu/cpufreq/policy0/scaling_cur_freq";
  static constexpr const char* kGpuMinPath =
      "/sys/devices/gpu.0/devfreq/gpu/min_freq";
  static constexpr const char* kGpuMaxPath =
      "/sys/devices/gpu.0/devfreq/gpu/max_freq";
  static constexpr const char* kGpuCurPath =
      "/sys/devices/gpu.0/devfreq/gpu/cur_freq";
  static constexpr const char* kMemMinPath =
      "/sys/devices/memory/devfreq/emc/min_freq";
  static constexpr const char* kMemMaxPath =
      "/sys/devices/memory/devfreq/emc/max_freq";
  static constexpr const char* kMemCurPath =
      "/sys/devices/memory/devfreq/emc/cur_freq";

 private:
  void pin(const char* min_path, const char* max_path, const char* cur_path,
           double value);

  const DvfsSpace& space_;
  SysfsTree tree_;
};

}  // namespace bofl::device
