// Named fault scenarios: curated FaultPlans exercising the failure modes
// the controller must survive.  Shared by `bofl_sim --scenario <name>`, the
// scenario test harness (tests/scenarios/) and the nightly randomized CI
// job, so all three agree on what "thermal-storm" means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"

namespace bofl::faults {

/// One catalog row for scenario discoverability (`--list-scenarios`).
/// `hidden` marks probes excluded from the generic sweep, whose invariants
/// they deliberately break (today: "prior-poisoned").
struct ScenarioInfo {
  std::string name;
  std::string description;
  bool hidden = false;
};

/// Every scenario make_scenario accepts — public names in a stable order
/// ("clean" first), then hidden ones — each with a one-line description.
[[nodiscard]] const std::vector<ScenarioInfo>& all_scenarios();

/// Build the named scenario.  Device episode windows scale with
/// `horizon_s`, the approximate per-client simulated duration of the run
/// (sum of round deadlines is a good estimate).  Throws
/// std::invalid_argument for unknown names.
///
///   clean             no faults; the baseline every invariant compares to
///   thermal-storm     periodic fleet-wide throttling storms + DVFS clamps
///   flaky-sysfs       transient measurement-read failures all run long
///   straggler-heavy   late reports and client dropouts every round
///   mid-round-throttle one long co-runner + clamp episode mid-horizon
[[nodiscard]] FaultPlan make_scenario(const std::string& name,
                                      std::uint64_t seed, double horizon_s);

}  // namespace bofl::faults
