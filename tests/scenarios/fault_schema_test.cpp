// Pins the fault-event telemetry schema.  Downstream tooling (the nightly
// CI job, notebooks reading run JSONL) greps for "fault" lines; this test
// freezes their exact bytes so a schema change is a conscious decision.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl::faults {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultEventSchema, GoldenBytes) {
  const std::string path = ::testing::TempDir() + "/fault_events.jsonl";
  telemetry::Registry registry;
  {
    telemetry::RunRecorder recorder(registry, path);
    telemetry::install_global_recorder(&recorder);
    emit_fault_event({FaultKind::kThermalStorm, 3, 0, 127.5, 1.6});
    emit_fault_event({FaultKind::kSensorDropout, -1, 2, 40.25, 4.0});
    emit_fault_event({FaultKind::kDeadlineJitter, 7, -1, 0.0, 0.125});
    telemetry::install_global_recorder(nullptr);
  }
  EXPECT_EQ(registry.counter("faults.events").total(), 3u);
  EXPECT_EQ(
      read_file(path),
      "{\"event\":\"fault\",\"seq\":0,\"kind\":\"thermal-storm\","
      "\"round\":3,\"client\":0,\"time_s\":127.5,\"magnitude\":1.6}\n"
      "{\"event\":\"fault\",\"seq\":1,\"kind\":\"sensor-dropout\","
      "\"round\":-1,\"client\":2,\"time_s\":40.25,\"magnitude\":4}\n"
      "{\"event\":\"fault\",\"seq\":2,\"kind\":\"deadline-jitter\","
      "\"round\":7,\"client\":-1,\"time_s\":0,\"magnitude\":0.125}\n");
}

TEST(FaultEventSchema, PlanJsonRoundTripIsByteStable) {
  FaultPlan plan;
  plan.name = "golden";
  plan.seed = 42;
  FaultSpec storm;
  storm.kind = FaultKind::kThermalStorm;
  storm.start_s = 10.0;
  storm.duration_s = 5.0;
  storm.period_s = 30.0;
  storm.magnitude = 1.5;
  plan.faults.push_back(storm);
  FaultSpec straggler;
  straggler.kind = FaultKind::kStraggler;
  straggler.start_s = 0.0;
  straggler.duration_s = 0.0;
  straggler.magnitude = 2.0;
  straggler.probability = 0.25;
  straggler.client = 1;
  plan.faults.push_back(straggler);

  const std::string once = plan.to_json();
  const FaultPlan reparsed = FaultPlan::from_json(once);
  EXPECT_EQ(reparsed, plan);
  EXPECT_EQ(reparsed.to_json(), once);
  EXPECT_EQ(
      once,
      "{\"seed\":42,\"name\":\"golden\",\"faults\":["
      "{\"kind\":\"thermal-storm\",\"start_s\":10,\"duration_s\":5,"
      "\"period_s\":30,\"magnitude\":1.5,\"probability\":1,\"client\":-1},"
      "{\"kind\":\"straggler\",\"start_s\":0,\"duration_s\":0,"
      "\"period_s\":0,\"magnitude\":2,\"probability\":0.25,\"client\":1}]}");
}

// A plan's integer fields are checked before the cast: a seed or client
// that is negative, fractional or past 2^53 is a typed error.
TEST(FaultEventSchema, PlanRejectsNonIntegralSeedAndClient) {
  for (const char* plan :
       {R"({"seed": -5})", R"({"seed": 1e300})", R"({"seed": 2.5})",
        R"({"faults": [{"kind": "straggler", "client": 1.5}]})",
        R"({"faults": [{"kind": "straggler", "client": -2}]})",
        R"({"faults": [{"kind": "straggler", "client": 1e300}]})"}) {
    EXPECT_THROW((void)FaultPlan::from_json(plan), std::invalid_argument)
        << plan;
  }
  const FaultPlan valid = FaultPlan::from_json(
      R"({"seed": 7, "faults": [{"kind": "straggler", "client": 1}]})");
  EXPECT_EQ(valid.seed, 7U);
  EXPECT_EQ(valid.faults.at(0).client, 1);
}

}  // namespace
}  // namespace bofl::faults
