#include "faults/fault_plan.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"

namespace bofl::faults {

namespace {

using telemetry::integer_field;
using telemetry::JsonNode;
using telemetry::number_field;

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kThermalStorm, "thermal-storm"},
    {FaultKind::kCoRunner, "co-runner"},
    {FaultKind::kDvfsClamp, "dvfs-clamp"},
    {FaultKind::kSensorDropout, "sensor-dropout"},
    {FaultKind::kStraggler, "straggler"},
    {FaultKind::kClientDropout, "client-dropout"},
    {FaultKind::kDeadlineJitter, "deadline-jitter"},
};

}  // namespace

const char* to_string(FaultKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_string(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) {
      return entry.kind;
    }
  }
  return std::nullopt;
}

bool is_device_fault(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThermalStorm:
    case FaultKind::kCoRunner:
    case FaultKind::kDvfsClamp:
    case FaultKind::kSensorDropout:
      return true;
    case FaultKind::kStraggler:
    case FaultKind::kClientDropout:
    case FaultKind::kDeadlineJitter:
      return false;
  }
  return false;
}

bool FaultPlan::has_device_faults() const {
  for (const FaultSpec& spec : faults) {
    if (is_device_fault(spec.kind)) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::has_fl_faults() const {
  for (const FaultSpec& spec : faults) {
    if (!is_device_fault(spec.kind)) {
      return true;
    }
  }
  return false;
}

void FaultPlan::validate() const {
  for (const FaultSpec& spec : faults) {
    BOFL_REQUIRE(spec.start_s >= 0.0, "fault start_s cannot be negative");
    BOFL_REQUIRE(spec.duration_s >= 0.0, "fault duration_s cannot be negative");
    BOFL_REQUIRE(spec.period_s == 0.0 || spec.period_s >= spec.duration_s,
                 "recurring faults need period_s >= duration_s");
    BOFL_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
                 "fault probability must be in [0, 1]");
    BOFL_REQUIRE(spec.client >= -1, "fault client must be -1 or a client id");
    switch (spec.kind) {
      case FaultKind::kThermalStorm:
      case FaultKind::kCoRunner:
      case FaultKind::kStraggler:
        BOFL_REQUIRE(spec.magnitude >= 1.0,
                     "slowdown magnitude must be >= 1 (a fault cannot speed "
                     "the device up)");
        break;
      case FaultKind::kDvfsClamp:
        BOFL_REQUIRE(spec.magnitude > 0.0 && spec.magnitude <= 1.0,
                     "dvfs-clamp magnitude is an axis cap fraction in (0, 1]");
        break;
      case FaultKind::kSensorDropout:
        BOFL_REQUIRE(spec.magnitude >= 1.0,
                     "sensor-dropout magnitude must be >= 1");
        break;
      case FaultKind::kClientDropout:
        break;
      case FaultKind::kDeadlineJitter:
        BOFL_REQUIRE(spec.magnitude >= 0.0 && spec.magnitude < 1.0,
                     "deadline-jitter magnitude must be in [0, 1)");
        break;
    }
    if (is_device_fault(spec.kind)) {
      BOFL_REQUIRE(spec.duration_s > 0.0,
                   "windowed device faults need duration_s > 0");
    }
  }
}

telemetry::JsonValue fault_spec_to_json(const FaultSpec& spec) {
  telemetry::JsonValue entry = telemetry::JsonValue::object();
  entry.set("kind", to_string(spec.kind))
      .set("start_s", spec.start_s)
      .set("duration_s", spec.duration_s)
      .set("period_s", spec.period_s)
      .set("magnitude", spec.magnitude)
      .set("probability", spec.probability)
      .set("client", spec.client);
  return entry;
}

FaultSpec fault_spec_from_json(const telemetry::JsonNode& node) {
  BOFL_REQUIRE(node.type == JsonNode::Type::kObject,
               "each fault must be a JSON object");
  const JsonNode* kind = node.find("kind");
  BOFL_REQUIRE(kind != nullptr && kind->type == JsonNode::Type::kString,
               "each fault needs a string 'kind'");
  const std::optional<FaultKind> parsed = fault_kind_from_string(kind->string);
  BOFL_REQUIRE(parsed.has_value(), "unknown fault kind: " + kind->string);
  FaultSpec spec;
  spec.kind = *parsed;
  spec.start_s = number_field(node, "start_s", 0.0);
  spec.duration_s = number_field(node, "duration_s", 0.0);
  spec.period_s = number_field(node, "period_s", 0.0);
  spec.magnitude = number_field(node, "magnitude", 1.0);
  spec.probability = number_field(node, "probability", 1.0);
  spec.client = integer_field(node, "client", -1, -1);
  return spec;
}

std::string FaultPlan::to_json() const {
  telemetry::JsonValue root = telemetry::JsonValue::object();
  root.set("seed", seed).set("name", name);
  telemetry::JsonValue list = telemetry::JsonValue::array();
  for (const FaultSpec& spec : faults) {
    list.push_back(fault_spec_to_json(spec));
  }
  root.set("faults", std::move(list));
  return root.dump();
}

FaultPlan FaultPlan::from_json(const std::string& text) {
  const JsonNode root = telemetry::parse_json(text);
  BOFL_REQUIRE(root.type == JsonNode::Type::kObject,
               "a fault plan must be a JSON object");
  FaultPlan plan;
  plan.seed = static_cast<std::uint64_t>(integer_field(root, "seed", 0));
  if (const JsonNode* name = root.find("name")) {
    BOFL_REQUIRE(name->type == JsonNode::Type::kString,
                 "fault plan 'name' must be a string");
    plan.name = name->string;
  }
  if (const JsonNode* list = root.find("faults")) {
    BOFL_REQUIRE(list->type == JsonNode::Type::kArray,
                 "fault plan 'faults' must be an array");
    for (const JsonNode& entry : list->array) {
      plan.faults.push_back(fault_spec_from_json(entry));
    }
  }
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::from_json_file(const std::string& path) {
  std::ifstream in(path);
  BOFL_REQUIRE(in.is_open(), "cannot open fault plan: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json(buffer.str());
}

}  // namespace bofl::faults
