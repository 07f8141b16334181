#include "cli.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "faults/scenarios.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::cli {

bool check_known_flags(const FlagParser& flags,
                       std::initializer_list<std::string_view> known) {
  for (const std::string& key : flags.keys()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  return true;
}

bool apply_simd_flag(const FlagParser& flags) {
  if (!flags.has("simd")) {
    return true;
  }
  const std::string simd_name = flags.get("simd", "");
  const auto level = linalg::simd::level_from_string(simd_name);
  if (!level.has_value()) {
    std::fprintf(stderr, "unknown --simd level: %s\n", simd_name.c_str());
    return false;
  }
  linalg::simd::force_level(*level);
  return true;
}

std::optional<core::ControllerKind> parse_controller_flag(
    const FlagParser& flags) {
  const std::string name = flags.get("controller", "bofl");
  const std::optional<core::ControllerKind> kind =
      core::controller_kind_from_string(name);
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown controller: %s\n", name.c_str());
  }
  return kind;
}

bool load_fault_plan(const FlagParser& flags, std::uint64_t seed,
                     double horizon_s, std::optional<faults::FaultPlan>& plan) {
  const std::string faults_path = flags.get("faults", "");
  const std::string scenario_name = flags.get("scenario", "");
  if (!faults_path.empty() && !scenario_name.empty()) {
    std::fprintf(stderr, "--faults and --scenario are mutually exclusive\n");
    return false;
  }
  if (!faults_path.empty()) {
    plan = faults::FaultPlan::from_json_file(faults_path);
  } else if (!scenario_name.empty()) {
    plan = faults::make_scenario(scenario_name, seed ^ 0xFA17ULL, horizon_s);
  }
  return true;
}

void print_fault_scenarios() {
  std::printf("fault scenarios (--scenario NAME):\n");
  for (const faults::ScenarioInfo& info : faults::all_scenarios()) {
    std::printf("  %-18s %s%s\n", info.name.c_str(), info.description.c_str(),
                info.hidden ? "  [hidden]" : "");
  }
}

TelemetrySession::TelemetrySession(const FlagParser& flags)
    : path_(flags.get("metrics-out", "")),
      print_summary_(flags.get_bool("metrics-summary")) {
  if (path_.empty() && !print_summary_) {
    return;
  }
  registry_ = std::make_unique<telemetry::Registry>();
  recorder_ = std::make_unique<telemetry::RunRecorder>(*registry_, path_);
  telemetry::install_global_recorder(recorder_.get());
  registry_->gauge("runtime.simd_level")
      .set(static_cast<double>(
          static_cast<int>(linalg::simd::active_level())));
}

TelemetrySession::~TelemetrySession() {
  if (recorder_ != nullptr) {
    telemetry::install_global_recorder(nullptr);
  }
}

void TelemetrySession::finish() {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->emit_summary();
  if (print_summary_) {
    recorder_->print_summary(stdout);
  }
  if (!path_.empty()) {
    std::printf("metrics written to %s (%zu events)\n", path_.c_str(),
                recorder_->events_written());
  }
}

}  // namespace bofl::cli
