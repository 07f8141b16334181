// Tests for heterogeneous fleets: mixed AGX/TX2 pools with cohort-aware
// deadline floors.
#include <gtest/gtest.h>

#include "fl/simulation.hpp"

namespace bofl::fl {
namespace {

using core::ControllerKind;

FlSimulationConfig mixed_config() {
  FlSimulationConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 8;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  config.controller = ControllerKind::kPerformant;
  config.deadline_ratio = 2.5;
  config.seed = 1717;
  return config;
}

TEST(HeterogeneousFleet, MixedPoolRunsAndNobodyDrops) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FederatedSimulation sim({&agx, &tx2}, mixed_config());
  const FlSimulationResult result = sim.run();
  ASSERT_EQ(result.rounds.size(), 8u);
  // Deadlines are floored at the slowest participant's T_min, so even the
  // TX2 clients (≈2.4x slower on ViT) land every update at full speed.
  EXPECT_EQ(result.total_dropped_updates(), 0u);
}

TEST(HeterogeneousFleet, DeadlinesTrackCohortComposition) {
  // With a large AGX/TX2 speed gap, rounds whose cohort includes a TX2
  // must receive longer deadlines than all-AGX rounds.
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FlSimulationConfig config = mixed_config();
  config.num_clients = 8;
  config.clients_per_round = 2;
  config.rounds = 30;
  FederatedSimulation sim({&agx, &tx2}, config);
  const FlSimulationResult result = sim.run();

  const std::int64_t jobs =
      (static_cast<std::int64_t>(config.shard_examples) /
       config.minibatch_size) *
      config.epochs;
  const double agx_t_min =
      agx.round_t_min(device::vit_profile(), jobs).value();
  const double tx2_t_min =
      tx2.round_t_min(device::vit_profile(), jobs).value();
  ASSERT_GT(tx2_t_min, agx_t_min * 1.5);

  bool saw_fast_cohort = false;
  bool saw_slow_cohort = false;
  for (const FlRoundStats& round : result.rounds) {
    // Every deadline respects the uniform-slack band of *some* cohort.
    EXPECT_GE(round.deadline.value(), agx_t_min - 1e-9);
    EXPECT_LE(round.deadline.value(),
              config.deadline_ratio * tx2_t_min + 1e-9);
    saw_fast_cohort |= round.deadline.value() < tx2_t_min;
    saw_slow_cohort |= round.deadline.value() > tx2_t_min;
  }
  // With 30 rounds of random 2-of-8 cohorts both kinds must appear.
  EXPECT_TRUE(saw_fast_cohort);
  EXPECT_TRUE(saw_slow_cohort);
}

TEST(HeterogeneousFleet, LearningStillConverges) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FlSimulationConfig config = mixed_config();
  config.rounds = 10;
  FederatedSimulation sim({&agx, &tx2}, config);
  const FlSimulationResult result = sim.run();
  EXPECT_LT(result.rounds.back().global_loss,
            result.rounds.front().global_loss);
}

TEST(HeterogeneousFleet, BoflFleetSavesEnergyOnMixedHardware) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FlSimulationConfig config = mixed_config();
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.epochs = 2;
  config.rounds = 25;
  config.deadline_ratio = 3.0;
  config.controller = ControllerKind::kBofl;
  FederatedSimulation bofl_sim({&agx, &tx2}, config);
  config.controller = ControllerKind::kPerformant;
  FederatedSimulation perf_sim({&agx, &tx2}, config);
  const FlSimulationResult bofl = bofl_sim.run();
  const FlSimulationResult perf = perf_sim.run();
  EXPECT_LT(bofl.total_energy().value(), perf.total_energy().value());
  EXPECT_EQ(bofl.total_dropped_updates(), 0u);
}

TEST(HeterogeneousFleet, RejectsBadDeviceList) {
  EXPECT_THROW(
      FederatedSimulation(std::vector<const device::DeviceModel*>{},
                          mixed_config()),
      std::invalid_argument);
  EXPECT_THROW(
      FederatedSimulation(
          std::vector<const device::DeviceModel*>{nullptr}, mixed_config()),
      std::invalid_argument);
}

}  // namespace
}  // namespace bofl::fl
