// The fleet engine's bit-identity contract: the full per-round trace is the
// same at any shard count and any worker count, clean and under FL-level
// fault plans routed through the per-shard event queues.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "device/device_model.hpp"
#include "device/workload.hpp"
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

}  // namespace
}  // namespace bofl::fleet
