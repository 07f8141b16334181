// The FleetScenario JSON dialect: byte-stable round-trips, validation
// errors, the named-scenario registry, and the --list-scenarios catalogs
// both drivers print from.
#include <algorithm>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "faults/fleet_scenario.hpp"
#include "faults/scenarios.hpp"

namespace bofl::faults {
namespace {

// The byte-stability contract: to_json emits every section with explicit
// defaults, so parse(dump) == dump byte for byte — the same guarantee the
// FaultPlan dialect gives, extended to population specs.
TEST(FleetScenarioSchema, NamedScenariosRoundTripByteStably) {
  for (const std::string& name : fleet_scenario_names()) {
    const FleetScenario scenario = make_fleet_scenario(name, 42);
    const std::string text = scenario.to_json();
    const FleetScenario parsed = FleetScenario::from_json(text);
    EXPECT_EQ(parsed, scenario) << name;
    EXPECT_EQ(parsed.to_json(), text) << name;
  }
}

TEST(FleetScenarioSchema, FullSpecRoundTripsByteStably) {
  FleetScenario scenario;
  scenario.seed = 7;
  scenario.name = "kitchen-sink";
  scenario.churn = {0.02, 0.10, 0.50, 3};
  scenario.diurnal = {12, 0.40, 0.25};
  scenario.task_switches.push_back({5, -1, "resnet50"});
  scenario.task_switches.push_back({9, 0, "lstm"});
  scenario.battery = {250.0, 30.0, 0.75};
  FaultSpec fault;
  fault.kind = FaultKind::kThermalStorm;
  fault.start_s = 10.0;
  fault.duration_s = 40.0;
  fault.magnitude = 1.4;
  scenario.fault_plan.faults.push_back(fault);
  scenario.fault_plan.seed = scenario.seed;
  scenario.fault_plan.name = scenario.name;

  const std::string text = scenario.to_json();
  const FleetScenario parsed = FleetScenario::from_json(text);
  EXPECT_EQ(parsed, scenario);
  EXPECT_EQ(parsed.to_json(), text);
}

// Omitted sections fall back to inert defaults — a minimal spec is legal.
TEST(FleetScenarioSchema, MinimalSpecParses) {
  const FleetScenario scenario =
      FleetScenario::from_json(R"({"seed": 3, "name": "bare"})");
  EXPECT_EQ(scenario.seed, 3U);
  EXPECT_EQ(scenario.name, "bare");
  EXPECT_FALSE(scenario.churn.enabled());
  EXPECT_FALSE(scenario.diurnal.enabled());
  EXPECT_TRUE(scenario.task_switches.empty());
  EXPECT_FALSE(scenario.battery.enabled());
  EXPECT_TRUE(scenario.fault_plan.empty());
  EXPECT_TRUE(scenario.empty());
}

TEST(FleetScenarioSchema, RejectsInvalidSpecs) {
  EXPECT_THROW(FleetScenario::from_json(
                   R"({"churn": {"leave_prob": 1.5}})"),
               std::exception);
  EXPECT_THROW(FleetScenario::from_json(
                   R"({"diurnal": {"period_rounds": 4, "cohort_amplitude": 1.0}})"),
               std::exception);
  EXPECT_THROW(FleetScenario::from_json(
                   R"({"task_switches": [{"round": 2, "profile": "no-such"}]})"),
               std::exception);
  EXPECT_THROW(FleetScenario::from_json(
                   R"({"battery": {"capacity_j": -1.0}})"),
               std::exception);
  EXPECT_THROW(make_fleet_scenario("no-such-scenario", 1), std::exception);
  // Integer fields must be integers in range, checked before the cast: a
  // negative or huge seed, a fractional period or cluster index.
  for (const char* spec :
       {R"({"seed": -5})", R"({"seed": 1e300})", R"({"seed": 1.5})",
        R"({"diurnal": {"period_rounds": 2.5}})",
        R"({"churn": {"start_round": 1e300}})",
        R"({"task_switches": [{"round": 2, "cluster": 0.5,
                               "profile": "vit"}]})",
        R"({"task_switches": [{"round": 2, "cluster": -2,
                               "profile": "vit"}]})",
        R"({"faults": [{"kind": "straggler", "client": 2.5}]})"}) {
    EXPECT_THROW((void)FleetScenario::from_json(spec), std::invalid_argument)
        << spec;
  }
}

// JSON has no inf or NaN, and strtod reads 1e999 as inf: a spec with an
// out-of-range number is rejected at parse time instead of reaching the
// engine's llround as a battery capacity.
TEST(FleetScenarioSchema, RejectsNonFiniteNumbers) {
  EXPECT_THROW(FleetScenario::from_json(
                   R"({"battery": {"capacity_j": 1e999}})"),
               std::invalid_argument);
  EXPECT_THROW(
      FleetScenario::from_json(
          R"({"battery": {"capacity_j": 5, "recharge_j_per_round": 1e999}})"),
      std::invalid_argument);
}

// The embedded fault list rides the scenario's identity: one seed, one
// label, shared with the plan the engine adopts.
TEST(FleetScenarioSchema, EmbeddedFaultsInheritScenarioIdentity) {
  const FleetScenario scenario = FleetScenario::from_json(R"({
    "seed": 99, "name": "stormy",
    "faults": [{"kind": "thermal-storm", "start_s": 1.0,
                "duration_s": 5.0, "magnitude": 1.3}]
  })");
  EXPECT_EQ(scenario.fault_plan.seed, 99U);
  EXPECT_EQ(scenario.fault_plan.name, "stormy");
  ASSERT_EQ(scenario.fault_plan.faults.size(), 1U);
  EXPECT_EQ(scenario.fault_plan.faults[0].kind, FaultKind::kThermalStorm);
}

// Every named fleet scenario has a one-line description for the
// --list-scenarios catalog; unknown names resolve to an empty string.
TEST(FleetScenarioCatalog, EveryNamedScenarioIsDescribed) {
  const std::vector<std::string>& names = fleet_scenario_names();
  ASSERT_GE(names.size(), 5U);
  EXPECT_NE(std::find(names.begin(), names.end(), "steady"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "churn"), names.end());
  for (const std::string& name : names) {
    EXPECT_STRNE(fleet_scenario_description(name), "") << name;
  }
  EXPECT_STREQ(fleet_scenario_description("no-such"), "");
}

// The fault-scenario catalog the drivers print: public names are the five
// make_scenario documents, and the hidden prior-poisoned entry is listed
// (with its hidden marker) so operators can look it up.
TEST(FleetScenarioCatalog, FaultCatalogCoversPublicAndHidden) {
  const std::vector<ScenarioInfo> catalog = all_scenarios();
  const std::vector<std::string> public_names = {
      "clean", "thermal-storm", "flaky-sysfs", "straggler-heavy",
      "mid-round-throttle"};
  std::size_t public_count = 0;
  bool saw_hidden_poisoned = false;
  for (const ScenarioInfo& info : catalog) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    if (info.hidden) {
      saw_hidden_poisoned |= info.name == "prior-poisoned";
      EXPECT_EQ(std::find(public_names.begin(), public_names.end(), info.name),
                public_names.end())
          << "hidden scenario listed as public";
    } else {
      ++public_count;
      EXPECT_NE(std::find(public_names.begin(), public_names.end(), info.name),
                public_names.end())
          << info.name;
    }
  }
  EXPECT_EQ(public_count, public_names.size());
  EXPECT_TRUE(saw_hidden_poisoned);
}

}  // namespace
}  // namespace bofl::faults
