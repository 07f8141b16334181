// The one place that knows which pace controllers exist and how to build
// one: BoFL (paper §4), its two §6.1 baselines and the linear-model
// ablation.  fl::Simulation, the fleet's canonical cluster controllers and
// the CLI tools all construct controllers through make_controller, so a new
// policy is one more enumerator and one more case here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "core/bofl_controller.hpp"
#include "core/pace_controller.hpp"

namespace bofl::core {

enum class ControllerKind {
  kBofl,        ///< the paper's controller (phase 1 → 2 → 3)
  kPerformant,  ///< every job at x_max
  kOracle,      ///< exploitation ILP over the true Pareto front every round
  kLinear,      ///< SmartPC-style linear CPU-frequency model (ablation)
};

/// Display name: "BoFL", "Performant", "Oracle" or "LinearModel" (the same
/// string the built controller's name() returns).
[[nodiscard]] const char* to_string(ControllerKind kind);

/// Parse a CLI name: bofl | performant | oracle | linear.
[[nodiscard]] std::optional<ControllerKind> controller_kind_from_string(
    std::string_view name);

/// Build a fresh controller of `kind` for one device running `profile`.
/// `options` only applies to kBofl, whose mbo_cost is always replaced by
/// the device-calibrated model (mbo_cost_for_device).  With `round_t_min`
/// set, τ is also capped at round_t_min / 8 so short rounds can still
/// explore (fl::Simulation, the fleet); nullopt keeps options.tau as given
/// (bofl_sim's single-device runs of the paper's tasks).
[[nodiscard]] std::unique_ptr<PaceController> make_controller(
    ControllerKind kind, const device::DeviceModel& model,
    const device::WorkloadProfile& profile, device::NoiseModel noise,
    BoflOptions options, std::uint64_t seed,
    std::optional<Seconds> round_t_min);

}  // namespace bofl::core
