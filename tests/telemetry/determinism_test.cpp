// The telemetry determinism contract: installing a recorder must not change
// a single bit of any simulation result.  Instrumentation only observes —
// it never consumes RNG draws or SimClock time — so a run with --metrics-out
// is exactly the run without it, plus an event stream on the side.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "core/mbo_cost.hpp"
#include "core/task.hpp"
#include "device/device_model.hpp"
#include "fl/simulation.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl {
namespace {

void expect_identical(const core::TaskResult& a, const core::TaskResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    const core::RoundTrace& x = a.rounds[r];
    const core::RoundTrace& y = b.rounds[r];
    EXPECT_EQ(x.phase, y.phase);
    EXPECT_EQ(x.deadline.value(), y.deadline.value());
    EXPECT_EQ(x.elapsed().value(), y.elapsed().value());
    EXPECT_EQ(x.energy().value(), y.energy().value());
    EXPECT_EQ(x.mbo_energy.value(), y.mbo_energy.value());
    EXPECT_EQ(x.mbo_latency.value(), y.mbo_latency.value());
    EXPECT_EQ(x.jobs(), y.jobs());
    EXPECT_EQ(x.slack().value(), y.slack().value());
  }
}

core::TaskResult run_bofl_task(const device::DeviceModel& model) {
  core::FlTaskSpec task = core::cifar10_vit_task(model.name());
  task.num_rounds = 12;
  const auto rounds = core::make_rounds(task, model, 2.0, 99);
  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(model.name());
  core::BoflController controller(model, task.profile, device::NoiseModel{},
                                  options, 7);
  return core::run_task(controller, rounds);
}

TEST(TelemetryDeterminism, HarnessRunIsBitIdenticalWithRecorder) {
  const device::DeviceModel model = device::jetson_agx();
  const core::TaskResult baseline = run_bofl_task(model);

  telemetry::Registry registry;
  const std::string path =
      ::testing::TempDir() + "/determinism_core.jsonl";
  telemetry::RunRecorder recorder(registry, path);
  telemetry::install_global_recorder(&recorder);
  const core::TaskResult recorded = run_bofl_task(model);
  telemetry::install_global_recorder(nullptr);

  expect_identical(baseline, recorded);
  // And the instrumentation actually fired.
  EXPECT_EQ(registry.counter("core.rounds").total(), 12u);
  EXPECT_GT(recorder.events_written(), 0u);
}

fl::FlSimulationResult run_fleet(std::size_t threads) {
  const device::DeviceModel model = device::jetson_agx();
  fl::FlSimulationConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 4;
  config.shard_examples = 64;
  config.seed = 5;
  config.threads = threads;
  fl::FederatedSimulation sim(model, config);
  return sim.run();
}

void expect_identical(const fl::FlSimulationResult& a,
                      const fl::FlSimulationResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r].global_loss, b.rounds[r].global_loss);
    EXPECT_EQ(a.rounds[r].global_accuracy, b.rounds[r].global_accuracy);
    EXPECT_EQ(a.rounds[r].energy.value(), b.rounds[r].energy.value());
    EXPECT_EQ(a.rounds[r].participants, b.rounds[r].participants);
    EXPECT_EQ(a.rounds[r].accepted, b.rounds[r].accepted);
    EXPECT_EQ(a.rounds[r].deadline.value(), b.rounds[r].deadline.value());
  }
}

TEST(TelemetryDeterminism, FleetRunIsBitIdenticalWithRecorder) {
  const fl::FlSimulationResult baseline = run_fleet(1);

  telemetry::Registry registry;
  const std::string path =
      ::testing::TempDir() + "/determinism_fleet.jsonl";
  telemetry::RunRecorder recorder(registry, path);
  telemetry::install_global_recorder(&recorder);
  const fl::FlSimulationResult recorded = run_fleet(1);
  telemetry::install_global_recorder(nullptr);

  expect_identical(baseline, recorded);
  EXPECT_EQ(registry.counter("fl.rounds").total(), 4u);
}

TEST(TelemetryDeterminism, ParallelFleetMatchesSerialUnderRecorder) {
  // The parallel-determinism contract must survive instrumentation too:
  // with a recorder installed, a 4-thread fleet still reproduces the
  // serial fleet bit-for-bit.
  telemetry::Registry registry;
  telemetry::RunRecorder recorder(registry, "");
  telemetry::install_global_recorder(&recorder);
  const fl::FlSimulationResult serial = run_fleet(1);
  const fl::FlSimulationResult parallel = run_fleet(4);
  telemetry::install_global_recorder(nullptr);
  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace bofl
