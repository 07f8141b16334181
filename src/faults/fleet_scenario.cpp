#include "faults/fleet_scenario.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "device/workload.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"

namespace bofl::faults {

namespace {

using telemetry::integer_field;
using telemetry::JsonNode;
using telemetry::JsonValue;
using telemetry::number_field;

}  // namespace

double DiurnalSpec::wave(std::int64_t round) const {
  // Exact piecewise-linear triangle: no libm, so the factors (and every
  // quantity derived from them) are bit-identical across platforms.
  const double pos = static_cast<double>(round % period_rounds) /
                     static_cast<double>(period_rounds);
  double deviation = 2.0 * pos - 1.0;
  if (deviation < 0.0) {
    deviation = -deviation;
  }
  return 1.0 - 2.0 * deviation;
}

double DiurnalSpec::cohort_factor(std::int64_t round) const {
  if (period_rounds <= 0) {
    return 1.0;
  }
  return 1.0 + cohort_amplitude * wave(round);
}

double DiurnalSpec::deadline_factor(std::int64_t round) const {
  if (period_rounds <= 0) {
    return 1.0;
  }
  return 1.0 - deadline_amplitude * wave(round);
}

void FleetScenario::validate() const {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  BOFL_REQUIRE(probability(churn.leave_prob),
               "churn leave_prob must be in [0, 1]");
  BOFL_REQUIRE(probability(churn.rejoin_prob),
               "churn rejoin_prob must be in [0, 1]");
  BOFL_REQUIRE(probability(churn.reset_prob),
               "churn reset_prob must be in [0, 1]");
  BOFL_REQUIRE(churn.start_round >= 0,
               "churn start_round cannot be negative");
  BOFL_REQUIRE(diurnal.period_rounds >= 0,
               "diurnal period_rounds cannot be negative");
  const auto amplitude = [](double a) { return a >= 0.0 && a < 1.0; };
  BOFL_REQUIRE(amplitude(diurnal.cohort_amplitude),
               "diurnal cohort_amplitude must be in [0, 1)");
  BOFL_REQUIRE(amplitude(diurnal.deadline_amplitude),
               "diurnal deadline_amplitude must be in [0, 1)");
  for (const TaskSwitchSpec& ts : task_switches) {
    BOFL_REQUIRE(ts.round >= 0, "task switch round cannot be negative");
    BOFL_REQUIRE(ts.cluster >= -1,
                 "task switch cluster must be -1 or a cluster index");
    BOFL_REQUIRE(device::profile_from_string(ts.profile).has_value(),
                 "unknown task switch profile: " + ts.profile);
  }
  BOFL_REQUIRE(battery.capacity_j >= 0.0,
               "battery capacity_j cannot be negative");
  BOFL_REQUIRE(battery.recharge_j_per_round >= 0.0,
               "battery recharge_j_per_round cannot be negative");
  BOFL_REQUIRE(probability(battery.resume_fraction),
               "battery resume_fraction must be in [0, 1]");
  fault_plan.validate();
}

std::string FleetScenario::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("seed", seed).set("name", name);
  JsonValue churn_obj = JsonValue::object();
  churn_obj.set("leave_prob", churn.leave_prob)
      .set("rejoin_prob", churn.rejoin_prob)
      .set("reset_prob", churn.reset_prob)
      .set("start_round", churn.start_round);
  root.set("churn", std::move(churn_obj));
  JsonValue diurnal_obj = JsonValue::object();
  diurnal_obj.set("period_rounds", diurnal.period_rounds)
      .set("cohort_amplitude", diurnal.cohort_amplitude)
      .set("deadline_amplitude", diurnal.deadline_amplitude);
  root.set("diurnal", std::move(diurnal_obj));
  JsonValue switches = JsonValue::array();
  for (const TaskSwitchSpec& ts : task_switches) {
    JsonValue entry = JsonValue::object();
    entry.set("round", ts.round)
        .set("cluster", ts.cluster)
        .set("profile", ts.profile);
    switches.push_back(std::move(entry));
  }
  root.set("task_switches", std::move(switches));
  JsonValue battery_obj = JsonValue::object();
  battery_obj.set("capacity_j", battery.capacity_j)
      .set("recharge_j_per_round", battery.recharge_j_per_round)
      .set("resume_fraction", battery.resume_fraction);
  root.set("battery", std::move(battery_obj));
  JsonValue fault_list = JsonValue::array();
  for (const FaultSpec& spec : fault_plan.faults) {
    fault_list.push_back(fault_spec_to_json(spec));
  }
  root.set("faults", std::move(fault_list));
  return root.dump();
}

FleetScenario FleetScenario::from_json(const std::string& text) {
  const JsonNode root = telemetry::parse_json(text);
  BOFL_REQUIRE(root.type == JsonNode::Type::kObject,
               "a fleet scenario must be a JSON object");
  FleetScenario scenario;
  scenario.seed = static_cast<std::uint64_t>(integer_field(root, "seed", 0));
  if (const JsonNode* name = root.find("name")) {
    BOFL_REQUIRE(name->type == JsonNode::Type::kString,
                 "fleet scenario 'name' must be a string");
    scenario.name = name->string;
  }
  if (const JsonNode* churn = root.find("churn")) {
    BOFL_REQUIRE(churn->type == JsonNode::Type::kObject,
                 "fleet scenario 'churn' must be an object");
    scenario.churn.leave_prob = number_field(*churn, "leave_prob", 0.0);
    scenario.churn.rejoin_prob = number_field(*churn, "rejoin_prob", 0.0);
    scenario.churn.reset_prob = number_field(*churn, "reset_prob", 0.0);
    scenario.churn.start_round = integer_field(*churn, "start_round", 0);
  }
  if (const JsonNode* diurnal = root.find("diurnal")) {
    BOFL_REQUIRE(diurnal->type == JsonNode::Type::kObject,
                 "fleet scenario 'diurnal' must be an object");
    scenario.diurnal.period_rounds =
        integer_field(*diurnal, "period_rounds", 0);
    scenario.diurnal.cohort_amplitude =
        number_field(*diurnal, "cohort_amplitude", 0.0);
    scenario.diurnal.deadline_amplitude =
        number_field(*diurnal, "deadline_amplitude", 0.0);
  }
  if (const JsonNode* switches = root.find("task_switches")) {
    BOFL_REQUIRE(switches->type == JsonNode::Type::kArray,
                 "fleet scenario 'task_switches' must be an array");
    for (const JsonNode& entry : switches->array) {
      BOFL_REQUIRE(entry.type == JsonNode::Type::kObject,
                   "each task switch must be a JSON object");
      TaskSwitchSpec ts;
      ts.round = integer_field(entry, "round", 0);
      ts.cluster = integer_field(entry, "cluster", -1, -1);
      const JsonNode* profile = entry.find("profile");
      BOFL_REQUIRE(
          profile != nullptr && profile->type == JsonNode::Type::kString,
          "each task switch needs a string 'profile'");
      ts.profile = profile->string;
      scenario.task_switches.push_back(std::move(ts));
    }
  }
  if (const JsonNode* battery = root.find("battery")) {
    BOFL_REQUIRE(battery->type == JsonNode::Type::kObject,
                 "fleet scenario 'battery' must be an object");
    scenario.battery.capacity_j = number_field(*battery, "capacity_j", 0.0);
    scenario.battery.recharge_j_per_round =
        number_field(*battery, "recharge_j_per_round", 0.0);
    scenario.battery.resume_fraction =
        number_field(*battery, "resume_fraction", 0.25);
  }
  if (const JsonNode* faults = root.find("faults")) {
    BOFL_REQUIRE(faults->type == JsonNode::Type::kArray,
                 "fleet scenario 'faults' must be an array");
    for (const JsonNode& entry : faults->array) {
      scenario.fault_plan.faults.push_back(fault_spec_from_json(entry));
    }
  }
  // The embedded plan rides the scenario's identity: one seed, one label.
  scenario.fault_plan.seed = scenario.seed;
  scenario.fault_plan.name = scenario.name;
  scenario.validate();
  return scenario;
}

FleetScenario FleetScenario::from_json_file(const std::string& path) {
  std::ifstream in(path);
  BOFL_REQUIRE(in.is_open(), "cannot open fleet scenario: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

namespace {

struct NamedFleetScenario {
  const char* name;
  const char* description;
};

constexpr NamedFleetScenario kFleetScenarios[] = {
    {"steady",
     "no population dynamics; the baseline every fleet invariant compares "
     "to"},
    {"churn",
     "5%/round leave, 25%/round re-join; 30% of re-joins lose their pace "
     "state and re-admit through the cluster prior"},
    {"diurnal",
     "8-round day: cohort size swings +-60% while deadlines tighten up to "
     "30% at the peak"},
    {"task-switch",
     "every cluster switches to ResNet50 at round 10, forcing "
     "re-exploration under the new cluster key"},
    {"battery-budget",
     "tight per-client energy budgets; drained clients sit out rounds "
     "until recharged past the resume watermark"},
};

}  // namespace

const std::vector<std::string>& fleet_scenario_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> list;
    for (const NamedFleetScenario& entry : kFleetScenarios) {
      list.emplace_back(entry.name);
    }
    return list;
  }();
  return names;
}

const char* fleet_scenario_description(const std::string& name) {
  for (const NamedFleetScenario& entry : kFleetScenarios) {
    if (name == entry.name) {
      return entry.description;
    }
  }
  return "";
}

FleetScenario make_fleet_scenario(const std::string& name,
                                  std::uint64_t seed) {
  FleetScenario scenario;
  scenario.seed = seed;
  scenario.name = name;
  scenario.fault_plan.seed = seed;
  scenario.fault_plan.name = name;
  if (name == "steady") {
    // Intentionally empty.
  } else if (name == "churn") {
    scenario.churn.leave_prob = 0.05;
    scenario.churn.rejoin_prob = 0.25;
    scenario.churn.reset_prob = 0.30;
    scenario.churn.start_round = 2;
  } else if (name == "diurnal") {
    scenario.diurnal.period_rounds = 8;
    scenario.diurnal.cohort_amplitude = 0.60;
    scenario.diurnal.deadline_amplitude = 0.30;
  } else if (name == "task-switch") {
    TaskSwitchSpec ts;
    ts.round = 10;
    ts.cluster = -1;
    ts.profile = "resnet50";
    scenario.task_switches.push_back(std::move(ts));
  } else if (name == "battery-budget") {
    // Tight against the ~280 J an AGX/ViT participation costs: one round of
    // training nearly drains the pack and the trickle recharge needs ~6
    // clean rounds to climb back over the 80% resume watermark, so clients
    // re-selected shortly after participating sit the round out.
    scenario.battery.capacity_j = 350.0;
    scenario.battery.recharge_j_per_round = 40.0;
    scenario.battery.resume_fraction = 0.8;
  } else {
    BOFL_REQUIRE(false, "unknown fleet scenario: " + name);
  }
  scenario.validate();
  return scenario;
}

}  // namespace bofl::faults
