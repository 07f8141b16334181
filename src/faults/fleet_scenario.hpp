// Declarative fleet-population scenarios: what the POPULATION does over a
// fleet run, as opposed to what goes wrong on one device (fault_plan.hpp).
//
// A FleetScenario extends the FaultPlan JSON dialect with four population
// processes, all keyed on the fleet round index:
//   * churn     — clients leave and re-join; a re-join either restores the
//                 client's pace state (its trajectory cursor — the fleet
//                 analogue of a bofl_sim --load-state resume) or loses it
//                 (app killed, storage wiped), putting the client back at
//                 entry 0 where the cluster prior re-admits it through the
//                 knowledge plane;
//   * diurnal   — cohort size and deadline pressure follow a triangle wave
//                 (exact piecewise-linear arithmetic, no libm), the fleet
//                 analogue of day/night availability and peak-hour deadlines;
//   * task
//     switches  — a cluster's workload profile changes mid-run, forcing the
//                 canonical controller back into exploration (re-admitting a
//                 prior for the NEW cluster key when a store is attached);
//   * battery   — per-client energy budgets couple rounds: training drains
//                 the budget, rounds recharge it, and a depleted client sits
//                 out until it recovers.
// An embedded FaultPlan rides along so device- and FL-level faults can hit
// the same run.
//
// Determinism contract: every churn decision is a pure hash of (scenario
// seed, churn domain, round, client id); diurnal factors and battery
// arithmetic are exact integer/double expressions of the round index.  No
// decision depends on shard or thread layout, so fleet traces under any
// scenario stay bit-identical at any --shards x --threads (the
// fleet-population harness asserts this per named scenario).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"

namespace bofl::faults {

/// Client leave/re-join process, active from `start_round` on.  Draws are
/// per (round, client) pure hashes; see fleet_engine.cpp's churn domains.
struct ChurnSpec {
  double leave_prob = 0.0;   ///< P(active client leaves) per round
  double rejoin_prob = 0.0;  ///< P(away client re-joins) per round
  /// P(state lost on re-join): the client's trajectory cursor resets to 0
  /// (cold re-admission through the cluster prior); otherwise the cursor is
  /// restored and the client resumes where it left off.
  double reset_prob = 0.0;
  std::int64_t start_round = 0;

  [[nodiscard]] bool enabled() const {
    return leave_prob > 0.0 || rejoin_prob > 0.0;
  }
  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Triangle-wave modulation of cohort size and deadline pressure with
/// period `period_rounds`.  The wave is exact piecewise-linear arithmetic on
/// the round index (tri(r) in [-1, 1], trough at round 0, peak at half a
/// period), so factors are bit-reproducible on any platform:
///   cohort_factor(r)   = 1 + cohort_amplitude   * tri(r)   (more clients
///                        available at the peak), and
///   deadline_factor(r) = 1 - deadline_amplitude * tri(r)   (deadlines
///                        tighten when demand peaks).
struct DiurnalSpec {
  std::int64_t period_rounds = 0;  ///< 0 = disabled
  double cohort_amplitude = 0.0;   ///< in [0, 1)
  double deadline_amplitude = 0.0; ///< in [0, 1)

  [[nodiscard]] bool enabled() const {
    return period_rounds > 0 &&
           (cohort_amplitude > 0.0 || deadline_amplitude > 0.0);
  }
  /// tri(round) in [-1, 1]; requires period_rounds > 0 and round >= 0.
  [[nodiscard]] double wave(std::int64_t round) const;
  [[nodiscard]] double cohort_factor(std::int64_t round) const;
  [[nodiscard]] double deadline_factor(std::int64_t round) const;
  friend bool operator==(const DiurnalSpec&, const DiurnalSpec&) = default;
};

/// One non-stationary workload switch: at `round`, cluster `cluster`
/// (-1 = every cluster) starts training `profile` ("vit", "resnet50" or
/// "lstm").  The canonical controller restarts exploration on the new
/// workload — and, when a knowledge store is attached, re-admits the prior
/// of the NEW (device, workload) cluster key.
struct TaskSwitchSpec {
  std::int64_t round = 0;
  std::int64_t cluster = -1;
  std::string profile;

  friend bool operator==(const TaskSwitchSpec&,
                         const TaskSwitchSpec&) = default;
};

/// Per-client battery budget coupling rounds: every round recharges every
/// client by `recharge_j_per_round` (saturating at `capacity_j`); training
/// drains the client's actual round energy.  A client participates only
/// while its charge is at least `resume_fraction * capacity_j` — below
/// that it sits out (counted as battery-blocked) until recharged.
struct BatterySpec {
  double capacity_j = 0.0;  ///< 0 = disabled
  double recharge_j_per_round = 0.0;
  double resume_fraction = 0.25;  ///< in [0, 1]

  [[nodiscard]] bool enabled() const { return capacity_j > 0.0; }
  friend bool operator==(const BatterySpec&, const BatterySpec&) = default;
};

struct FleetScenario {
  /// Base seed for the churn hash domains (combined with the fleet run's
  /// own seed by the engine, like FaultPlan::seed).
  std::uint64_t seed = 0;
  std::string name;  ///< optional label, carried into telemetry
  ChurnSpec churn;
  DiurnalSpec diurnal;
  std::vector<TaskSwitchSpec> task_switches;
  BatterySpec battery;
  /// Device/FL faults riding along with the population dynamics.
  FaultPlan fault_plan;

  [[nodiscard]] bool empty() const {
    return !churn.enabled() && !diurnal.enabled() && task_switches.empty() &&
           !battery.enabled() && fault_plan.empty();
  }

  /// Throws std::invalid_argument on out-of-range fields or an unknown
  /// task-switch profile name.
  void validate() const;

  /// Compact JSON in the FaultPlan dialect; every section is emitted (with
  /// defaults made explicit) so to_json(from_json(s)) == s byte-for-byte.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static FleetScenario from_json(const std::string& text);
  [[nodiscard]] static FleetScenario from_json_file(const std::string& path);

  friend bool operator==(const FleetScenario&, const FleetScenario&) = default;
};

/// All named fleet scenarios accepted by make_fleet_scenario, in a stable
/// order ("steady" first).
[[nodiscard]] const std::vector<std::string>& fleet_scenario_names();

/// One-line description of a named fleet scenario; empty string for an
/// unknown name.
[[nodiscard]] const char* fleet_scenario_description(const std::string& name);

/// Build the named fleet-population scenario.
///
///   steady          no population dynamics; the baseline every fleet
///                   invariant compares to
///   churn           5 %/round leave, 25 %/round re-join, 30 % of re-joins
///                   lose their pace state
///   diurnal         8-round day: cohort swings +-60 %, deadlines +-30 %
///   task-switch     every cluster switches to ResNet50 at round 10
///   battery-budget  tight per-client energy budgets force clients to sit
///                   out and recover between participations
[[nodiscard]] FleetScenario make_fleet_scenario(const std::string& name,
                                                std::uint64_t seed);

}  // namespace bofl::faults
