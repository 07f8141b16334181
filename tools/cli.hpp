// Flag plumbing shared by bofl_sim and bofl_fleet.  Each helper prints its
// own error message; the caller prints its usage text and exits.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string_view>

#include "common/flags.hpp"
#include "core/controller_factory.hpp"
#include "faults/fault_plan.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl::cli {

/// False, after naming the first offender, when a flag on the command line
/// is not in `known` — a typo such as --clinets must not silently run the
/// defaults.
[[nodiscard]] bool check_known_flags(
    const FlagParser& flags, std::initializer_list<std::string_view> known);

/// Apply --simd before any numeric work; false on an unknown or
/// unsupported level (a hard error, not a silent downgrade).
[[nodiscard]] bool apply_simd_flag(const FlagParser& flags);

/// --controller bofl|performant|oracle|linear (default bofl).
[[nodiscard]] std::optional<core::ControllerKind> parse_controller_flag(
    const FlagParser& flags);

/// --faults PLAN.json, or the named --scenario scaled to `horizon_s`
/// seconds; `plan` stays empty without either.  False when both are given.
[[nodiscard]] bool load_fault_plan(const FlagParser& flags,
                                   std::uint64_t seed, double horizon_s,
                                   std::optional<faults::FaultPlan>& plan);

/// The --scenario catalog, hidden entries included (an operator reading a
/// CI log must be able to look up the ones regression tests use).
void print_fault_scenarios();

/// --metrics-out PATH / --metrics-summary: the run's registry and global
/// recorder.  Construct before any instrumented component (the thread pool
/// and the fleet engine cache metric handles); the destructor uninstalls.
class TelemetrySession {
 public:
  explicit TelemetrySession(const FlagParser& flags);
  ~TelemetrySession();

  /// nullptr when telemetry is off.
  [[nodiscard]] telemetry::RunRecorder* recorder() const {
    return recorder_.get();
  }
  /// Emit the summary event, print the summary table and where the events
  /// went.
  void finish();

 private:
  std::string path_;
  bool print_summary_ = false;
  std::unique_ptr<telemetry::Registry> registry_;
  std::unique_ptr<telemetry::RunRecorder> recorder_;
};

}  // namespace bofl::cli
