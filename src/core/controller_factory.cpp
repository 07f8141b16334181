#include "core/controller_factory.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/linear_controller.hpp"
#include "core/oracle_controller.hpp"
#include "core/performant_controller.hpp"

namespace bofl::core {

const char* to_string(ControllerKind kind) {
  switch (kind) {
    case ControllerKind::kBofl:
      return "BoFL";
    case ControllerKind::kPerformant:
      return "Performant";
    case ControllerKind::kOracle:
      return "Oracle";
    case ControllerKind::kLinear:
      return "LinearModel";
  }
  return "unknown";
}

std::optional<ControllerKind> controller_kind_from_string(
    std::string_view name) {
  constexpr std::pair<std::string_view, ControllerKind> kCliNames[] = {
      {"bofl", ControllerKind::kBofl},
      {"performant", ControllerKind::kPerformant},
      {"oracle", ControllerKind::kOracle},
      {"linear", ControllerKind::kLinear}};
  for (const auto& [cli_name, kind] : kCliNames) {
    if (cli_name == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::unique_ptr<PaceController> make_controller(
    ControllerKind kind, const device::DeviceModel& model,
    const device::WorkloadProfile& profile, device::NoiseModel noise,
    BoflOptions options, std::uint64_t seed,
    std::optional<Seconds> round_t_min) {
  switch (kind) {
    case ControllerKind::kBofl:
      options.mbo_cost = mbo_cost_for_device(model.name());
      if (round_t_min.has_value()) {
        // Keep the reference measurement duration meaningfully smaller than
        // a round so short rounds can still explore.
        options.tau =
            Seconds{std::min(options.tau.value(), round_t_min->value() / 8.0)};
      }
      return std::make_unique<BoflController>(model, profile, noise, options,
                                              seed);
    case ControllerKind::kPerformant:
      return std::make_unique<PerformantController>(model, profile, noise,
                                                    seed);
    case ControllerKind::kOracle:
      return std::make_unique<OracleController>(model, profile, noise, seed);
    case ControllerKind::kLinear:
      return std::make_unique<LinearModelController>(model, profile, noise,
                                                     seed);
  }
  BOFL_ASSERT(false, "unreachable controller kind");
}

}  // namespace bofl::core
