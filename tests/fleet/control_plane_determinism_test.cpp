// The parallel cluster control plane's bit-identity contract: fanning the
// per-round needed-depth reduction, trajectory extension and end-of-run
// prior distillation over the worker pool must leave every trace, counter
// and warm-store byte exactly where the serial control plane (threads = 1)
// puts them, at any shards x threads layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "faults/fleet_scenario.hpp"
#include "faults/scenarios.hpp"
#include "fleet/fleet_engine.hpp"
#include "priors/knowledge_store.hpp"

namespace bofl::fleet {
namespace {

/// Four clusters across two device models and three workloads, so the
/// control plane has genuinely concurrent per-cluster work (each cluster
/// owns its controller, RNG streams and fault channel).
FleetConfig four_cluster_config(const device::DeviceModel* agx,
                                const device::DeviceModel* tx2) {
  FleetConfig config;
  config.num_clients = 3000;
  config.rounds = 6;
  config.cohort_fraction = 0.05;
  config.seed = 23;
  config.clusters.push_back({agx, device::vit_profile(), 0.4});
  config.clusters.push_back({agx, device::resnet50_profile(), 0.2});
  config.clusters.push_back({tx2, device::lstm_profile(), 0.3});
  config.clusters.push_back({tx2, device::vit_profile(), 0.1});
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

/// Every tested layout vs the 1x1 serial reference.
void expect_layout_sweep_identical(const FleetConfig& base) {
  const FleetResult reference = run_with(base, 1, 1);
  ASSERT_GT(reference.total_participants(), 0u);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      expect_identical(reference, run_with(base, shards, threads));
    }
  }
}

TEST(ControlPlaneDeterminism, ParallelMatchesSerialAtEveryLayout) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  expect_layout_sweep_identical(four_cluster_config(&agx, &tx2));
}

TEST(ControlPlaneDeterminism, AllClusterTaskSwitchWorstCase) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig base = four_cluster_config(&agx, &tx2);
  // Every cluster re-explores in the same round: the worst case for
  // concurrent extension (all controllers rebuild trajectories at once).
  faults::FleetScenario scenario;
  scenario.seed = 7;
  scenario.name = "all-switch";
  scenario.task_switches.push_back({/*round=*/2, /*cluster=*/-1, "resnet50"});
  base.scenario = scenario;

  // The switch must actually bite: pushing it past the run's last round
  // must change the trace.
  FleetConfig no_switch = base;
  no_switch.scenario->task_switches[0].round = base.rounds + 10;
  EXPECT_NE(run_with(base, 1, 1).trace_hash,
            run_with(no_switch, 1, 1).trace_hash);

  expect_layout_sweep_identical(base);
}

TEST(ControlPlaneDeterminism, StragglerHeavyFaultPlan) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig base = four_cluster_config(&agx, &tx2);
  base.fault_plan = faults::make_scenario("straggler-heavy", 99, 100.0);
  base.straggler_timeout = 1.05;

  // The plan must bite (late reports, dropouts, cutoff timeouts) so the
  // buffered fault-event path is genuinely exercised under concurrency.
  const FleetResult reference = run_with(base, 1, 1);
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

  expect_layout_sweep_identical(base);
}

TEST(ControlPlaneDeterminism, WarmStoreBytesAreLayoutInvariant) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  // Small population, long run, big cohort: clusters reach exploitation so
  // the end-of-run publish contributes distilled snapshots, not just
  // outcome feedback (the parallelized prepare_publish path).
  FleetConfig base = four_cluster_config(&agx, &tx2);
  base.num_clients = 1200;
  base.rounds = 20;
  base.cohort_fraction = 0.5;
  base.prior_policy = priors::PriorPolicy::kVerify;

  const auto store_bytes = [&](std::size_t shards, std::size_t threads) {
    priors::KnowledgeStore store;
    FleetConfig config = base;
    config.knowledge = &store;
    const FleetResult result = run_with(std::move(config), shards, threads);
    EXPECT_GT(result.total_participants(), 0u);
    EXPECT_GT(store.num_clusters(), 0u);
    return store.to_json();
  };

  const std::string reference = store_bytes(1, 1);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      EXPECT_EQ(store_bytes(shards, threads), reference);
    }
  }
}

}  // namespace
}  // namespace bofl::fleet
