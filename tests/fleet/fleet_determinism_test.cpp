// The fleet engine's bit-identity contract: the full per-round trace is the
// same at any shard count and any worker count, clean and under FL-level
// fault plans routed through the per-shard event queues.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "faults/fleet_scenario.hpp"
#include "faults/scenarios.hpp"
#include "fleet/fleet_engine.hpp"

namespace bofl::fleet {
namespace {

FleetConfig small_config(const device::DeviceModel* agx,
                         const device::DeviceModel* tx2) {
  FleetConfig config;
  config.num_clients = 3000;
  config.rounds = 6;
  config.cohort_fraction = 0.05;
  config.seed = 11;
  // Two clusters so the weighted assignment and per-cluster trajectory
  // extension are exercised, not just the single-cluster fast path.
  config.clusters.push_back({agx, device::vit_profile(), 0.7});
  config.clusters.push_back({tx2, device::lstm_profile(), 0.3});
  return config;
}

FleetResult run_with(FleetConfig config, std::size_t shards,
                     std::size_t threads) {
  config.shards = shards;
  config.threads = threads;
  FleetEngine engine(std::move(config));
  return engine.run();
}

void expect_identical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    EXPECT_EQ(a.rounds[r], b.rounds[r]) << "round " << r;
  }
}

TEST(FleetDeterminism, TraceBitIdenticalAcrossShardAndThreadCounts) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  const FleetResult reference =
      run_with(small_config(&agx, &tx2), /*shards=*/1, /*threads=*/1);
  ASSERT_GT(reference.total_participants(), 0u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const FleetResult result =
          run_with(small_config(&agx, &tx2), shards, threads);
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      EXPECT_EQ(result.num_shards, shards);
      expect_identical(reference, result);
    }
  }
}

TEST(FleetDeterminism, StragglerHeavyPlanThroughEventQueuesIsShardInvariant) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig base = small_config(&agx, &tx2);
  base.fault_plan = faults::make_scenario("straggler-heavy", 99, 100.0);
  base.straggler_timeout = 1.2;

  const FleetResult reference = run_with(base, 1, 1);
  // The plan must actually bite for this test to mean anything: late
  // reports, dropouts, and cutoff-driven timeouts all present.
  std::uint64_t stragglers = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timed_out = 0;
  for (const FleetRoundStats& round : reference.rounds) {
    stragglers += round.stragglers;
    dropped += round.dropped;
    timed_out += round.timed_out;
  }
  EXPECT_GT(stragglers, 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(timed_out, 0u);

  for (const std::size_t shards : {std::size_t{4}, std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      const FleetResult result = run_with(base, shards, threads);
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      expect_identical(reference, result);
    }
  }
}

TEST(FleetDeterminism, RerunOfSameConfigReproduces) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  const FleetResult a = run_with(small_config(&agx, &tx2), 4, 8);
  const FleetResult b = run_with(small_config(&agx, &tx2), 4, 8);
  expect_identical(a, b);
}

TEST(FleetDeterminism, SeedChangesTheTrace) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig other = small_config(&agx, &tx2);
  other.seed = 12;
  const FleetResult a = run_with(small_config(&agx, &tx2), 2, 2);
  const FleetResult b = run_with(other, 2, 2);
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

/// Every pass-1 process at once: churn from round 1, battery budgets, the
/// diurnal cohort wave and the straggler-heavy dropouts.
faults::FleetScenario every_selection_process() {
  faults::FleetScenario scenario = faults::make_fleet_scenario("churn", 5);
  scenario.churn.start_round = 1;
  scenario.battery = faults::make_fleet_scenario("battery-budget", 5).battery;
  scenario.diurnal = faults::make_fleet_scenario("diurnal", 5).diurnal;
  scenario.fault_plan = faults::make_scenario("straggler-heavy", 5, 100.0);
  return scenario;
}

TEST(FleetDeterminism, ShardsShorterThanOneSelectionBlockMatchOneShard) {
  // Pass 1 sweeps each shard in blocks of 64 clients.  100 and 1000 clients
  // over 16 shards give shards of 6-7 and 62-63 clients: every block is a
  // partial one, and no shard starts on a multiple of 64.
  // Runs with and without churn: the membership mask comes from the churn
  // draws in one and from the block width alone in the other.
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  for (const std::size_t clients : {std::size_t{100}, std::size_t{1000}}) {
    for (const bool churn : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "clients=" << clients << " churn=" << churn);
      FleetConfig base = small_config(&agx, &tx2);
      base.num_clients = clients;
      base.rounds = 8;
      base.cohort_fraction = 0.5;
      base.scenario = every_selection_process();
      if (!churn) {
        base.scenario->churn = faults::ChurnSpec{};
      }
      const FleetResult reference = run_with(base, 1, 1);
      ASSERT_GT(reference.total_participants(), 0u);
      EXPECT_EQ(reference.total_departed() > 0, churn);
      EXPECT_GT(reference.total_battery_blocked(), 0u);
      const FleetResult sharded = run_with(base, 16, 4);
      EXPECT_EQ(sharded.num_shards, 16u);
      expect_identical(reference, sharded);
    }
  }
}

TEST(FleetDeterminism, FullCohortCountsEveryActiveClientOnce) {
  // At cohort 1.0 every client present after churn is selected, so each one
  // ends the round as a participant, a dropout or battery-blocked.
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig config = small_config(&agx, &tx2);
  config.num_clients = 1000;
  config.rounds = 8;
  config.cohort_fraction = 1.0;
  config.scenario = every_selection_process();
  config.scenario->diurnal = faults::DiurnalSpec{};
  const FleetResult result = run_with(config, 7, 2);
  std::uint64_t dropped = 0;
  for (const FleetRoundStats& round : result.rounds) {
    SCOPED_TRACE(::testing::Message() << "round " << round.round);
    EXPECT_GT(round.active_clients, 0u);
    EXPECT_EQ(round.participants + round.dropped + round.battery_blocked,
              round.active_clients);
    dropped += round.dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(result.total_departed(), 0u);
  EXPECT_GT(result.total_battery_blocked(), 0u);
}

}  // namespace
}  // namespace bofl::fleet
