// ScenarioRunner: run one BoflController under a fault plan and collect
// everything the robustness invariants are judged on.
//
// It drives the controller through a round schedule (the core harness path
// used by bofl_sim and the paper's §6 single-device experiments), with a
// DeviceFaultChannel installed on its observer.  Each round records a
// pessimistic feasibility verdict computed BEFORE the round runs (Eqn. 2
// with the worst fault effect the window can contain) plus the observed
// Pareto front's hypervolume against a fixed reference — the raw material
// for the two core invariants:
//   - no round that was pessimistically feasible at its start may miss its
//     deadline, and
//   - hypervolume is non-decreasing round over round (observations only
//     accumulate; a fixed reference keeps the areas comparable).
// FL-level faults (stragglers, dropouts, deadline jitter) run through the
// fleet engine; fleet_scenario_runner.hpp covers fleet populations.
//
// Lives under tests/ because it links core + priors + faults together; the
// production libraries stay acyclic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bofl_controller.hpp"
#include "core/trace.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "priors/prior_policy.hpp"
#include "priors/snapshot.hpp"

namespace bofl::scenarios {

struct DeviceScenarioOptions {
  std::string device = "agx";  ///< "agx" or "tx2"
  std::string task = "vit";    ///< "vit", "resnet50" or "lstm"
  double ratio = 2.5;          ///< deadline T_max / T_min
  std::int64_t rounds = 30;
  std::uint64_t seed = 1;
  Seconds tau{5.0};
  /// Knowledge-plane seam: when set, the prior seed is applied to the
  /// fresh controller under `prior_policy` before the first round — the
  /// scenario then exercises a warm start under faults (non-owning; must
  /// outlive the run).
  const core::BoflController::PriorSeed* prior = nullptr;
  priors::PriorPolicy prior_policy = priors::PriorPolicy::kVerify;
};

/// Per-round robustness record (one per RoundTrace, same order).
struct DeviceRoundReport {
  std::int64_t index = 0;
  /// Eqn. 2 held at round start under the worst fault effect any job in
  /// the round window could see (x_max capped by the tightest overlapping
  /// DVFS clamp, latency inflated by the largest overlapping slowdown):
  ///   W * T_pess * (1 + margin) <= deadline - tau - allowance * T_pess.
  /// The allowance term reserves the guardian's first-job budget, so the
  /// bound is sufficient for the controller to finish no matter how it
  /// splits the round between exploration and the x_max fallback.
  bool feasible_at_start = false;
  double t_pessimistic_s = 0.0;  ///< faulted per-job latency bound used
  /// Hypervolume of the controller's observed front after the round,
  /// against a fixed reference (1.5x the true worst per-job point).
  double hypervolume = 0.0;
};

struct DeviceScenarioResult {
  faults::FaultPlan plan;
  core::TaskResult task;
  std::vector<DeviceRoundReport> rounds;
  /// All fault events, drained serially per round (round-stamped).
  std::vector<faults::FaultEvent> events;
  /// How an applied prior resolved (kNone for cold runs).
  core::BoflController::PriorState prior_state =
      core::BoflController::PriorState::kNone;
  /// The controller's knowledge distilled after the last round — what it
  /// would contribute to a KnowledgeStore (donor material for prior tests).
  priors::PriorSnapshot snapshot;

  /// Training + MBO energy of the whole run.
  [[nodiscard]] Joules total_energy() const;

  // Invariant checks: empty string = holds, otherwise a human-readable
  // description of the first violation (gtest-friendly:
  // EXPECT_EQ(result.check_...(), "")).
  [[nodiscard]] std::string check_no_feasible_miss() const;
  [[nodiscard]] std::string check_monotone_hypervolume() const;
};

/// Run one BoflController through `plan`.  Deterministic in (plan, opts).
[[nodiscard]] DeviceScenarioResult run_device_scenario(
    const faults::FaultPlan& plan, const DeviceScenarioOptions& opts);

/// Same, with a named scenario (faults::make_scenario) scaled to the round
/// schedule's total deadline budget — the horizon bofl_sim uses.
[[nodiscard]] DeviceScenarioResult run_named_device_scenario(
    const std::string& name, const DeviceScenarioOptions& opts);

/// The scenarios of the generic sweep: every entry of faults::all_scenarios()
/// not marked hidden, in catalog order ("clean" first).
[[nodiscard]] std::vector<std::string> sweep_scenario_names();

}  // namespace bofl::scenarios
