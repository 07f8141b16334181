#include "fleet/fleet_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "faults/scenarios.hpp"
#include "runtime/sharding.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/process.hpp"

namespace bofl::fleet {
namespace {

FleetConfig tiny_config() {
  FleetConfig config;
  config.num_clients = 400;
  config.rounds = 10;
  config.cohort_fraction = 0.25;
  config.seed = 5;
  return config;  // default mix: one AGX/ViT cluster owned by the engine
}

TEST(FleetEngine, RejectsInvalidConfigs) {
  FleetConfig config = tiny_config();
  config.num_clients = 0;
  EXPECT_THROW(FleetEngine{config}, std::invalid_argument);
  config = tiny_config();
  config.cohort_fraction = 0.0;
  EXPECT_THROW(FleetEngine{config}, std::invalid_argument);
  config = tiny_config();
  config.clusters.push_back({nullptr, device::vit_profile(), 1.0});
  EXPECT_THROW(FleetEngine{config}, std::invalid_argument);
}

TEST(FleetEngine, CohortSizeTracksTheParticipationFraction) {
  FleetConfig config = tiny_config();
  config.rounds = 20;
  FleetEngine engine(config);
  const FleetResult result = engine.run();
  const double expected = config.cohort_fraction *
                          static_cast<double>(config.num_clients) *
                          static_cast<double>(config.rounds);
  const auto actual = static_cast<double>(result.total_participants());
  // Bernoulli draws: allow 4 standard deviations of slack.
  const double sd = std::sqrt(expected * (1.0 - config.cohort_fraction));
  EXPECT_NEAR(actual, expected, 4.0 * sd);
}

TEST(FleetEngine, ReachesExploitationAndHoldsDeadlines) {
  // Every client participates every round, so the cohort walks the
  // canonical trajectory to steady state within the run.
  FleetConfig config = tiny_config();
  config.num_clients = 200;
  config.cohort_fraction = 1.0;
  config.rounds = 40;
  FleetEngine engine(config);
  const FleetResult result = engine.run();
  ASSERT_EQ(result.rounds.size(), 40u);
  // Early rounds explore; by the end the whole cohort replays phase-3
  // entries (deadline_ratio 8 — the steady-state regime, PR 5's finding).
  EXPECT_EQ(result.rounds.front().phase1, result.rounds.front().participants);
  EXPECT_EQ(result.rounds.back().phase3, result.rounds.back().participants);
  EXPECT_GT(result.phase3_fraction(), 0.3);
  // The guardian keeps exploration safe and exploitation feasible.
  EXPECT_LT(result.miss_rate(), 0.05);
  EXPECT_GT(result.total_energy_j(), 0.0);
}

TEST(FleetEngine, OracleEntriesNeverCostMoreThanPerformant) {
  // Same seed => identical per-entry deadlines (the deadline stream hashes
  // only (seed, cluster, k)); the oracle's ILP schedule can then only save
  // energy relative to running every job flat-out.
  FleetConfig oracle = tiny_config();
  oracle.cohort_fraction = 1.0;
  oracle.rounds = 8;
  oracle.controller = core::ControllerKind::kOracle;
  FleetConfig performant = oracle;
  performant.controller = core::ControllerKind::kPerformant;
  FleetEngine oracle_engine(oracle);
  FleetEngine performant_engine(performant);
  (void)oracle_engine.run();
  (void)performant_engine.run();
  const ClusterEngine& opt = oracle_engine.cluster(0);
  const ClusterEngine& max = performant_engine.cluster(0);
  ASSERT_EQ(opt.size(), max.size());
  ASSERT_GE(opt.size(), 8u);
  for (std::size_t k = 0; k < opt.size(); ++k) {
    EXPECT_EQ(opt.entry(k).deadline_us, max.entry(k).deadline_us) << k;
    EXPECT_LE(opt.entry(k).energy_uj, max.entry(k).energy_uj) << k;
  }
}

TEST(FleetEngine, PerClientMemoryStaysFlatAcrossFleetSizes) {
  FleetConfig small = tiny_config();
  small.num_clients = 1'000;
  small.rounds = 2;
  FleetConfig large = tiny_config();
  large.num_clients = 16'000;
  large.rounds = 2;
  FleetConfig homogeneous = large;
  homogeneous.heterogeneity_cv = 0.0;
  FleetEngine small_engine(small);
  FleetEngine large_engine(large);
  FleetEngine homogeneous_engine(homogeneous);
  const FleetResult a = small_engine.run();
  const FleetResult b = large_engine.run();
  const FleetResult c = homogeneous_engine.run();
  // The SoA layout is exactly 18 B/client at any scale (u16 cluster, u32
  // participation and jitter cursors, f64 speed), with no per-client heap
  // objects; without heterogeneity the speed column is not allocated.
  EXPECT_EQ(a.bytes_per_client(), 18.0);
  EXPECT_EQ(b.bytes_per_client(), 18.0);
  EXPECT_EQ(c.bytes_per_client(), 10.0);
  EXPECT_GT(b.peak_rss_bytes, 0u);
}

TEST(FleetEngine, StragglerCutoffBoundsTheRoundWall) {
  FleetConfig config = tiny_config();
  config.fault_plan = faults::make_scenario("straggler-heavy", 3, 100.0);
  // Deadlines are uniform in [T_min, 8 T_min] and the cutoff scales the
  // cohort MAX; a tight multiple is needed for stragglers (delayed by half
  // their OWN deadline) to actually cross it.
  config.straggler_timeout = 0.5;
  config.rounds = 12;
  FleetEngine engine(config);
  const FleetResult result = engine.run();
  std::uint64_t timed_out = 0;
  for (const FleetRoundStats& round : result.rounds) {
    const auto cutoff_us = static_cast<std::uint64_t>(
        std::llround(config.straggler_timeout *
                     static_cast<double>(round.deadline_ref_us)));
    EXPECT_LE(round.wall_us, cutoff_us) << "round " << round.round;
    timed_out += round.timed_out;
  }
  EXPECT_GT(timed_out, 0u);
  EXPECT_GT(result.timeout_rate(), 0.0);
}

// The cutoff is llround(timeout * deadline): an infinite or NaN timeout
// would hand llround a non-finite value, so the engine refuses it.
TEST(FleetEngine, RejectsNonFiniteStragglerTimeout) {
  FleetConfig config = tiny_config();
  config.straggler_timeout = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FleetEngine{config}, std::invalid_argument);
  config.straggler_timeout = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(FleetEngine{config}, std::invalid_argument);
}

TEST(FleetEngine, PublishesFleetTelemetry) {
  telemetry::Registry registry;
  telemetry::set_global_registry(&registry);
  {
    FleetEngine engine(tiny_config());
    const FleetResult result = engine.run();
    const telemetry::RegistrySnapshot snap = registry.snapshot();
    std::uint64_t participants = 0;
    double peak_rss = 0.0;
    double soa_bytes = 0.0;
    for (const auto& counter : snap.counters) {
      if (counter.name == "fleet.participants") {
        participants = counter.value;
      }
    }
    for (const auto& gauge : snap.gauges) {
      if (gauge.name == "fleet.peak_rss_bytes") {
        peak_rss = gauge.value;
      }
      if (gauge.name == "fleet.soa_bytes") {
        soa_bytes = gauge.value;
      }
    }
    EXPECT_EQ(participants, result.total_participants());
    EXPECT_GT(peak_rss, 0.0);
    EXPECT_EQ(soa_bytes, static_cast<double>(result.soa_bytes));
    bool found_depth_histogram = false;
    for (const auto& hist : snap.histograms) {
      if (hist.name == "fleet.event_queue_depth") {
        found_depth_histogram = true;
        // One observation per shard per round.
        EXPECT_EQ(hist.histogram.count,
                  static_cast<std::uint64_t>(result.num_shards) *
                      result.rounds.size());
      }
    }
    EXPECT_TRUE(found_depth_histogram);
  }
  telemetry::set_global_registry(nullptr);
}

TEST(FleetEngine, MaxQueueDepthIsLargestShardCohort) {
  // One shard holds the whole cohort, and every participant pushes one
  // event, so each round's depth is its participant count.  Stepping one
  // round per run() shows the depth restarts every round rather than
  // carrying a high-water mark over.
  FleetConfig one_shard = tiny_config();
  one_shard.shards = 1;
  one_shard.rounds = 1;
  FleetEngine stepped(one_shard);
  std::uint64_t deepest = 0;
  for (int round = 0; round < 8; ++round) {
    const FleetResult step = stepped.run();
    ASSERT_EQ(step.rounds.size(), 1u);
    EXPECT_EQ(step.max_queue_depth, step.rounds[0].participants)
        << "round " << round;
    deepest = std::max(deepest, step.max_queue_depth);
  }
  one_shard.rounds = 8;
  FleetEngine whole(one_shard);
  EXPECT_EQ(whole.run().max_queue_depth, deepest);

  // Every client selected every round: a shard's cohort is its client
  // range, so the deepest queue is the largest shard.
  FleetConfig full = tiny_config();
  full.num_clients = 1003;
  full.cohort_fraction = 1.0;
  full.shards = 4;
  full.rounds = 3;
  std::uint64_t largest_shard = 0;
  for (std::size_t s = 0; s < full.shards; ++s) {
    largest_shard = std::max<std::uint64_t>(
        largest_shard, runtime::shard_range(full.num_clients, full.shards, s)
                           .size());
  }
  FleetEngine engine(full);
  EXPECT_EQ(engine.run().max_queue_depth, largest_shard);
}

TEST(FleetEngine, PeakRssProbeIsMonotoneAndPositive) {
  const std::uint64_t first = telemetry::peak_rss_bytes();
  EXPECT_GT(first, 0u);
  EXPECT_GE(telemetry::peak_rss_bytes(), first);
}

}  // namespace
}  // namespace bofl::fleet
