#include "faults/scenarios.hpp"

#include "common/error.hpp"

namespace bofl::faults {

namespace {

FaultSpec windowed(FaultKind kind, double start_s, double duration_s,
                   double period_s, double magnitude) {
  FaultSpec spec;
  spec.kind = kind;
  spec.start_s = start_s;
  spec.duration_s = duration_s;
  spec.period_s = period_s;
  spec.magnitude = magnitude;
  return spec;
}

FaultSpec per_round(FaultKind kind, double magnitude, double probability) {
  FaultSpec spec;
  spec.kind = kind;
  spec.magnitude = magnitude;
  spec.probability = probability;
  return spec;  // start 0, duration 0, period 0: every round
}

}  // namespace

const std::vector<ScenarioInfo>& all_scenarios() {
  static const std::vector<ScenarioInfo> catalog = {
      {"clean", "no faults; the baseline every invariant compares to",
       false},
      {"thermal-storm",
       "periodic fleet-wide 1.6x throttling storms with matching DVFS "
       "clamps",
       false},
      {"flaky-sysfs",
       "15% of measurement reads come back 4x off, all run long", false},
      {"straggler-heavy",
       "a quarter of reports land half a deadline late; 10% of clients "
       "vanish per round",
       false},
      {"mid-round-throttle",
       "one sustained mid-run co-runner episode with the top DVFS steps "
       "rejected",
       false},
      {"prior-poisoned",
       "whole-run 1.5x thermal degradation that makes a healthy-fleet "
       "prior mispredict; excluded from the generic sweep (its feasibility "
       "invariant does not hold here), used by the dedicated prior tests",
       true},
  };
  return catalog;
}

FaultPlan make_scenario(const std::string& name, std::uint64_t seed,
                        double horizon_s) {
  BOFL_REQUIRE(horizon_s > 0.0, "scenario horizon must be positive");
  FaultPlan plan;
  plan.seed = seed;
  plan.name = name;
  if (name == "clean") {
    // Baseline: the plan exists (so the harness runs one code path) but
    // perturbs nothing.
  } else if (name == "thermal-storm") {
    // Recurring fleet-wide storms: every storm slows jobs 1.6x and the
    // governor clamps the top DVFS steps for the same window.
    plan.faults.push_back(windowed(FaultKind::kThermalStorm,
                                   0.20 * horizon_s, 0.12 * horizon_s,
                                   0.35 * horizon_s, 1.6));
    plan.faults.push_back(windowed(FaultKind::kDvfsClamp, 0.20 * horizon_s,
                                   0.12 * horizon_s, 0.35 * horizon_s, 0.7));
  } else if (name == "flaky-sysfs") {
    // Sensor reads fail sporadically for the whole run: 15% of reads come
    // back 4x off (either direction).
    FaultSpec flaky = windowed(FaultKind::kSensorDropout, 0.0, horizon_s,
                               0.0, 4.0);
    flaky.probability = 0.15;
    plan.faults.push_back(flaky);
  } else if (name == "straggler-heavy") {
    // A quarter of reports land half a deadline late; clients occasionally
    // vanish outright.
    plan.faults.push_back(
        per_round(FaultKind::kStraggler, /*magnitude=*/1.5,
                  /*probability=*/0.25));
    plan.faults.push_back(per_round(FaultKind::kClientDropout,
                                    /*magnitude=*/1.0, /*probability=*/0.10));
  } else if (name == "prior-poisoned") {
    // Knowledge-plane poisoning probe: the unit is thermally degraded for
    // the WHOLE run (1.5x slower, from the first job), so a cluster prior
    // calibrated on healthy devices mispredicts immediately and the
    // controller must demote it to cold-start.  Deliberately hidden from
    // the generic scenario sweep, which asserts that at least
    // half of each run's rounds are pessimistically feasible, which a
    // persistent 1.5x slowdown under tight ratios does not guarantee —
    // this plan exists for the dedicated prior tests (prior_scenario_test).
    plan.faults.push_back(
        windowed(FaultKind::kThermalStorm, 0.0, horizon_s, 0.0, 1.5));
  } else if (name == "mid-round-throttle") {
    // One sustained mid-run episode: a co-runner steals cycles while the
    // governor rejects the top half of every frequency table.  The
    // controller has warmed up on clean rounds and must re-arm.
    plan.faults.push_back(windowed(FaultKind::kCoRunner, 0.40 * horizon_s,
                                   0.25 * horizon_s, 0.0, 1.4));
    plan.faults.push_back(windowed(FaultKind::kDvfsClamp, 0.40 * horizon_s,
                                   0.25 * horizon_s, 0.0, 0.5));
  } else {
    BOFL_REQUIRE(false, "unknown scenario: " + name);
  }
  plan.validate();
  return plan;
}

}  // namespace bofl::faults
