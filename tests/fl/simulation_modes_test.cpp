// Tests for the extended simulation modes: reporting deadlines, server
// deadline policies, and the LSTM fleet model.
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

TEST(SimulationModes, LstmFleetLearnsSequences) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.model = FleetModel::kLstm;
  config.profile = device::lstm_profile();
  config.feature_dim = 4;
  config.classes = 3;
  config.hidden = 12;
  config.rounds = 12;
  config.learning_rate = 0.08;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  EXPECT_LT(result.rounds.back().global_loss,
            result.rounds.front().global_loss);
  EXPECT_GT(result.final_accuracy(), result.rounds.front().global_accuracy);
}

TEST(SimulationModes, StaticTimeoutPolicyGivesConstantDeadlines) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.deadline_policy = DeadlinePolicyKind::kStaticTimeout;
  config.static_timeout_slack = 2.5;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  const double first = result.rounds.front().deadline.value();
  for (const FlRoundStats& round : result.rounds) {
    EXPECT_DOUBLE_EQ(round.deadline.value(), first);
    EXPECT_EQ(round.accepted, round.participants);
  }
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

TEST(SimulationModes, ReportingModeAccountsForUploads) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.reporting_deadline_mode = true;
  config.uplink_mbps = 20.0;
  config.deadline_ratio = 3.0;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  // With a healthy link and Performant pacing, everything still lands.
  EXPECT_EQ(result.total_dropped_updates(), 0u);
  EXPECT_GT(result.final_accuracy(), 0.0);
}

TEST(SimulationModes, ReportingModeDropsOnDeadLink) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.reporting_deadline_mode = true;
  // A link so slow the upload alone dwarfs any deadline the server sets.
  config.uplink_mbps = 0.001;
  config.rounds = 4;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  EXPECT_GT(result.total_dropped_updates(), 0u);
}

TEST(SimulationModes, ReportingModeWorksWithBofl) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = base_config();
  config.controller = ControllerKind::kBofl;
  config.reporting_deadline_mode = true;
  config.uplink_mbps = 20.0;
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.epochs = 2;
  config.deadline_ratio = 3.0;
  config.rounds = 12;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  // BoFL trains against the *inferred* training deadlines and still lands
  // every report.
  EXPECT_EQ(result.total_dropped_updates(), 0u);
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
