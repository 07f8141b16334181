#include "fl/simulation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

namespace bofl::fl {
namespace {

using core::ControllerKind;

FlSimulationConfig small_config(ControllerKind kind) {
  FlSimulationConfig config;
  config.num_clients = 6;
  config.clients_per_round = 3;
  config.rounds = 8;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  config.controller = kind;
  config.seed = 4242;
  return config;
}

TEST(Simulation, AccuracyImprovesUnderFedAvg) {
  const device::DeviceModel agx = device::jetson_agx();
  FederatedSimulation sim(agx, small_config(ControllerKind::kPerformant));
  const FlSimulationResult result = sim.run();
  ASSERT_EQ(result.rounds.size(), 8u);
  EXPECT_GT(result.final_accuracy(), result.rounds.front().global_accuracy);
  EXPECT_LT(result.rounds.back().global_loss,
            result.rounds.front().global_loss);
}

TEST(Simulation, EveryRoundAggregatesUpdates) {
  const device::DeviceModel agx = device::jetson_agx();
  FederatedSimulation sim(agx, small_config(ControllerKind::kPerformant));
  const FlSimulationResult result = sim.run();
  for (const FlRoundStats& round : result.rounds) {
    EXPECT_EQ(round.participants, 3u);
    EXPECT_EQ(round.accepted, 3u);  // Performant never misses
    EXPECT_GT(round.energy.value(), 0.0);
  }
  EXPECT_EQ(result.total_dropped_updates(), 0u);
}

TEST(Simulation, BoflUsesLessEnergyThanPerformant) {
  const device::DeviceModel agx = device::jetson_agx();
  // Paper-scale rounds: ~24 s at x_max so the controller can explore with
  // accurate (>= ~3 s) measurements, like the real Table-2 tasks.
  FlSimulationConfig bofl_config = small_config(ControllerKind::kBofl);
  bofl_config.rounds = 30;
  bofl_config.epochs = 2;
  bofl_config.minibatch_size = 8;
  bofl_config.shard_examples = 512;
  bofl_config.deadline_ratio = 3.0;
  FlSimulationConfig perf_config = bofl_config;
  perf_config.controller = ControllerKind::kPerformant;
  FederatedSimulation bofl_sim(agx, bofl_config);
  FederatedSimulation perf_sim(agx, perf_config);
  const FlSimulationResult bofl = bofl_sim.run();
  const FlSimulationResult perf = perf_sim.run();
  EXPECT_LT(bofl.total_energy().value(), perf.total_energy().value());
  EXPECT_EQ(bofl.total_dropped_updates(), 0u);  // deadline guardian works
}

TEST(Simulation, OracleControllerRuns) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = small_config(ControllerKind::kOracle);
  config.rounds = 4;
  FederatedSimulation sim(agx, config);
  const FlSimulationResult result = sim.run();
  EXPECT_EQ(result.rounds.size(), 4u);
  EXPECT_EQ(result.total_dropped_updates(), 0u);
}

TEST(Simulation, ControllerKindNames) {
  EXPECT_STREQ(to_string(ControllerKind::kBofl), "BoFL");
  EXPECT_STREQ(to_string(ControllerKind::kPerformant), "Performant");
  EXPECT_STREQ(to_string(ControllerKind::kOracle), "Oracle");
  EXPECT_STREQ(to_string(ControllerKind::kLinear), "LinearModel");
}

/// Bits of the total energy per controller kind, on rounds long enough for
/// BoFL to explore (so its tau and MBO-cost tuning show in the pin).  A
/// change here means the controller a kind builds, or how it is seeded and
/// tuned, changed, not just how it is constructed.
std::uint64_t total_energy_bits(ControllerKind kind) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = small_config(kind);
  config.rounds = 12;
  config.epochs = 2;
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.deadline_ratio = 3.0;
  FederatedSimulation sim(agx, config);
  const double energy = sim.run().total_energy().value();
  return std::bit_cast<std::uint64_t>(energy);
}

TEST(Simulation, PinnedTotalEnergyBofl) {
  EXPECT_EQ(total_energy_bits(ControllerKind::kBofl),
            0x40d3adaf1056091fULL);
}

TEST(Simulation, PinnedTotalEnergyPerformant) {
  EXPECT_EQ(total_energy_bits(ControllerKind::kPerformant),
            0x40d4e61a258c920fULL);
}

TEST(Simulation, PinnedTotalEnergyOracle) {
  EXPECT_EQ(total_energy_bits(ControllerKind::kOracle),
            0x40ce6687ec5667d1ULL);
}

TEST(Simulation, PinnedTotalEnergyLinear) {
  EXPECT_EQ(total_energy_bits(ControllerKind::kLinear),
            0x40d26e9e7a3f4b8dULL);
}

TEST(Simulation, RejectsBadConfig) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = small_config(ControllerKind::kPerformant);
  config.clients_per_round = 99;
  EXPECT_THROW(FederatedSimulation(agx, config), std::invalid_argument);
}

TEST(Simulation, DeterministicBySeed) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config = small_config(ControllerKind::kPerformant);
  config.rounds = 4;
  FederatedSimulation a(agx, config);
  FederatedSimulation b(agx, config);
  const FlSimulationResult ra = a.run();
  const FlSimulationResult rb = b.run();
  for (std::size_t i = 0; i < ra.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.rounds[i].global_loss, rb.rounds[i].global_loss);
    EXPECT_DOUBLE_EQ(ra.rounds[i].energy.value(),
                     rb.rounds[i].energy.value());
  }
}

TEST(SteadyStateCache, FlatTablesAreOnAndCountersFlow) {
  // The default run exercises the flat device tables, the profile-prune
  // cache and the compiled EHVI front; their telemetry counters must tick.
  // Every client must reach the exploitation phase — the profile-prune
  // cache only engages there; front compilations start with Pareto
  // construction.  A loose deadline_ratio gives each round enough budget to
  // drain the exploration backlog quickly (at the default 2.0 the per-round
  // budget only ever fits the phase-1 measurements).
  FlSimulationConfig config;
  config.num_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 24;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  config.deadline_ratio = 8.0;
  config.controller = ControllerKind::kBofl;
  config.seed = 20260806;
  config.threads = 1;
  const device::DeviceModel agx = device::jetson_agx();
  telemetry::Registry registry;
  telemetry::set_global_registry(&registry);
  FederatedSimulation sim(agx, config);
  (void)sim.run();
  telemetry::set_global_registry(nullptr);
  const telemetry::RegistrySnapshot snap = registry.snapshot();
  auto counter_of = [&](const std::string& name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) {
        return c.value;
      }
    }
    return 0;
  };
  EXPECT_GT(counter_of("device.flat_table_builds"), 0u);
  EXPECT_GT(counter_of("bofl.profile_prunes"), 0u);
  EXPECT_GT(counter_of("ehvi.front_compilations"), 0u);
}

}  // namespace
}  // namespace bofl::fl
