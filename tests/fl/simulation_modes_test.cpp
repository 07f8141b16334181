// Tests for the simulation's non-default modes: the adaptive deadline
// policy and client dropout.
#include <gtest/gtest.h>

#include "fl/simulation.hpp"

namespace bofl::fl {
namespace {

using core::ControllerKind;

FlSimulationConfig base_config() {
  FlSimulationConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 8;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  config.controller = ControllerKind::kPerformant;
  config.seed = 909;
  return config;
}

TEST(SimulationModes, AdaptiveSlackTightensOverTime) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.deadline_policy = DeadlinePolicyKind::kAdaptiveSlack;
  config.rounds = 15;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  // Performant always meets deadlines, so the slack must shrink steadily.
  EXPECT_LT(result.rounds.back().deadline.value(),
            result.rounds.front().deadline.value());
}

TEST(SimulationModes, DropoutShrinksAcceptedUpdates) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.dropout_probability = 0.5;
  config.rounds = 20;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  // Roughly half of the 60 selections vanish; tolerate wide variance.
  const std::size_t dropped = result.total_dropped_updates();
  EXPECT_GT(dropped, 10u);
  EXPECT_LT(dropped, 50u);
  // Learning still proceeds from the survivors.
  EXPECT_LT(result.rounds.back().global_loss,
            result.rounds.front().global_loss);
}

TEST(SimulationModes, DropoutRejectsInvalidProbability) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.dropout_probability = 1.0;
  FederatedSimulation sim(agx, config);
  EXPECT_THROW((void)sim.run(), std::invalid_argument);
}

}  // namespace
}  // namespace bofl::fl
