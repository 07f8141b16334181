// Robustness invariants over the named fault scenarios (ISSUE: the
// controller must degrade gracefully, never unsafely).  Each scenario runs
// the full BoFL stack; the invariants asserted here are the contract:
//   1. No round that was pessimistically feasible at its start (Eqn. 2
//      with the worst fault effect in the window) misses its deadline.
//   2. The observed front's hypervolume never regresses.
//   3. Faulted runs stay within a bounded energy factor of the clean run.
//   4. Fault injection is bit-deterministic in (plan, seed).
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "faults/scenarios.hpp"
#include "scenarios/scenario_runner.hpp"

namespace bofl::scenarios {
namespace {

DeviceScenarioOptions quick_options() {
  DeviceScenarioOptions opts;
  opts.device = "agx";
  opts.task = "vit";
  opts.ratio = 2.5;
  opts.rounds = 16;
  opts.seed = 11;
  return opts;
}

class NamedScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(NamedScenario, CoreInvariantsHold) {
  const DeviceScenarioResult result =
      run_named_device_scenario(GetParam(), quick_options());
  ASSERT_EQ(result.rounds.size(), result.task.rounds.size());
  EXPECT_EQ(result.check_no_feasible_miss(), "");
  EXPECT_EQ(result.check_monotone_hypervolume(), "");
  // The schedule leaves real headroom at ratio 2.5, so the invariant must
  // not be vacuous: most rounds have to be pessimistically feasible even
  // under the worst scenario window.
  const auto feasible = static_cast<std::size_t>(
      std::count_if(result.rounds.begin(), result.rounds.end(),
                    [](const DeviceRoundReport& r) {
                      return r.feasible_at_start;
                    }));
  EXPECT_GE(feasible, result.rounds.size() / 2)
      << "scenario " << GetParam() << " left almost no feasible rounds";
}

INSTANTIATE_TEST_SUITE_P(
    All, NamedScenario, ::testing::ValuesIn(sweep_scenario_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(Scenario, CleanRunHasNoFaultEvents) {
  const DeviceScenarioResult clean =
      run_named_device_scenario("clean", quick_options());
  EXPECT_TRUE(clean.plan.empty());
  EXPECT_TRUE(clean.events.empty());
  EXPECT_TRUE(clean.task.all_deadlines_met());
}

TEST(Scenario, ThermalStormEmitsEventsEndToEnd) {
  const DeviceScenarioResult storm =
      run_named_device_scenario("thermal-storm", quick_options());
  ASSERT_FALSE(storm.events.empty());
  // Episode-entry events are round-stamped by the serial drain and carry
  // the configured magnitudes.
  for (const faults::FaultEvent& event : storm.events) {
    EXPECT_GE(event.round, 0);
    EXPECT_EQ(event.client, 0);
    EXPECT_TRUE(event.kind == faults::FaultKind::kThermalStorm ||
                event.kind == faults::FaultKind::kDvfsClamp);
  }
}

TEST(Scenario, EnergyRegretVsCleanIsBounded) {
  const DeviceScenarioOptions opts = quick_options();
  const double clean =
      run_named_device_scenario("clean", opts).total_energy().value();
  ASSERT_GT(clean, 0.0);
  for (const std::string& name : sweep_scenario_names()) {
    const double faulted =
        run_named_device_scenario(name, opts).total_energy().value();
    // Storms multiply per-job energy by at most 1.6x and clamps force less
    // efficient configurations; 4x headroom catches a controller that
    // panics (e.g. re-exploring from scratch every round) while tolerating
    // the genuine physical cost of the faults.
    EXPECT_LE(faulted, 4.0 * clean) << "scenario " << name;
  }
}

TEST(Scenario, SamePlanSameSeedIsBitIdentical) {
  const DeviceScenarioOptions opts = quick_options();
  const DeviceScenarioResult a =
      run_named_device_scenario("thermal-storm", opts);
  const DeviceScenarioResult b =
      run_named_device_scenario("thermal-storm", opts);
  ASSERT_EQ(a.task.rounds.size(), b.task.rounds.size());
  for (std::size_t i = 0; i < a.task.rounds.size(); ++i) {
    EXPECT_EQ(a.task.rounds[i].elapsed().value(),
              b.task.rounds[i].elapsed().value());
    EXPECT_EQ(a.task.rounds[i].energy().value(),
              b.task.rounds[i].energy().value());
    EXPECT_EQ(a.rounds[i].hypervolume, b.rounds[i].hypervolume);
  }
  EXPECT_EQ(a.events, b.events);
}

TEST(Scenario, DifferentSeedsDecorrelateFaultStreams) {
  DeviceScenarioOptions opts = quick_options();
  const DeviceScenarioResult a =
      run_named_device_scenario("flaky-sysfs", opts);
  opts.seed = 12;
  const DeviceScenarioResult b =
      run_named_device_scenario("flaky-sysfs", opts);
  // Same plan shape, different run seed: the flaky-read draws must differ.
  EXPECT_NE(a.events, b.events);
}

}  // namespace
}  // namespace bofl::scenarios
