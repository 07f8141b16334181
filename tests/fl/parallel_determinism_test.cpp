// The runtime subsystem's headline contract: the federated simulation is
// bit-reproducible for ANY worker count.  Every comparison here is exact
// (==, not near): same seeds must give the same doubles whether one thread
// or eight ran the clients.
#include <gtest/gtest.h>

#include "fl/simulation.hpp"

namespace bofl::fl {
namespace {

using core::ControllerKind;

FlSimulationConfig fleet_config(std::size_t threads) {
  FlSimulationConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 6;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  config.controller = ControllerKind::kBofl;
  config.seed = 20220811;
  config.threads = threads;
  return config;
}

void expect_identical(const FlSimulationResult& serial,
                      const FlSimulationResult& parallel) {
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const FlRoundStats& a = serial.rounds[r];
    const FlRoundStats& b = parallel.rounds[r];
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.deadline.value(), b.deadline.value());
    EXPECT_EQ(a.energy.value(), b.energy.value());
    EXPECT_EQ(a.global_loss, b.global_loss);
    EXPECT_EQ(a.global_accuracy, b.global_accuracy);
  }
  EXPECT_EQ(serial.total_energy().value(), parallel.total_energy().value());
  EXPECT_EQ(serial.final_accuracy(), parallel.final_accuracy());
}

FlSimulationResult run_with(const FlSimulationConfig& config) {
  const device::DeviceModel agx = device::jetson_agx();
  FederatedSimulation sim(agx, config);
  return sim.run();
}

TEST(ParallelDeterminism, BoflFleetIsThreadCountInvariant) {
  expect_identical(run_with(fleet_config(1)), run_with(fleet_config(8)));
}

TEST(ParallelDeterminism, OddThreadCountsMatchToo) {
  expect_identical(run_with(fleet_config(1)), run_with(fleet_config(3)));
}

TEST(ParallelDeterminism, DropoutStreamSurvivesParallelism) {
  // Dropout draws come from a shared Rng; they must happen on the round
  // loop's thread so the stream is identical for any worker count.
  FlSimulationConfig serial = fleet_config(1);
  serial.dropout_probability = 0.25;
  serial.controller = ControllerKind::kPerformant;
  FlSimulationConfig parallel = serial;
  parallel.threads = 8;
  expect_identical(run_with(serial), run_with(parallel));
}

TEST(ParallelDeterminism, HeterogeneousFleetIsThreadCountInvariant) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  const std::vector<const device::DeviceModel*> devices{&agx, &tx2};
  FlSimulationConfig serial = fleet_config(1);
  serial.controller = ControllerKind::kPerformant;
  FlSimulationConfig parallel = serial;
  parallel.threads = 8;
  FederatedSimulation sim_serial(devices, serial);
  FederatedSimulation sim_parallel(devices, parallel);
  expect_identical(sim_serial.run(), sim_parallel.run());
}

}  // namespace
}  // namespace bofl::fl
