// ISSUE 5 acceptance pin: the fleet-shared exploitation-ILP memo must be
// invisible in the simulation output.  Cache on vs cache off (either via
// share_schedule_cache or the IlpOptions::disable_cache escape hatch), for
// any thread count, bit-identical results throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fl/simulation.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::fl {
namespace {

using core::ControllerKind;

FlSimulationConfig base_config() {
  FlSimulationConfig config;
  config.num_clients = 4;
  config.clients_per_round = 4;
  config.rounds = 18;
  config.epochs = 1;
  config.minibatch_size = 16;
  config.shard_examples = 128;
  // The default deadline_ratio of 2.0 keeps every client in phase 1 for the
  // whole run; 8.0 gives the round budget room to finish exploration, so
  // these comparisons actually cover Pareto construction and cached
  // exploitation solves, not just the exploration path.
  config.deadline_ratio = 8.0;
  config.controller = ControllerKind::kBofl;
  config.seed = 20260806;
  config.threads = 1;
  return config;
}

void expect_identical(const FlSimulationResult& a, const FlSimulationResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const FlRoundStats& x = a.rounds[r];
    const FlRoundStats& y = b.rounds[r];
    EXPECT_EQ(x.participants, y.participants);
    EXPECT_EQ(x.accepted, y.accepted);
    EXPECT_EQ(x.deadline.value(), y.deadline.value());
    EXPECT_EQ(x.round_wall.value(), y.round_wall.value());
    EXPECT_EQ(x.energy.value(), y.energy.value());
    EXPECT_EQ(x.global_loss, y.global_loss);
    EXPECT_EQ(x.global_accuracy, y.global_accuracy);
  }
  EXPECT_EQ(a.total_energy().value(), b.total_energy().value());
  EXPECT_EQ(a.final_accuracy(), b.final_accuracy());
}

FlSimulationResult run_with(const FlSimulationConfig& config) {
  const device::DeviceModel agx = device::jetson_agx();
  FederatedSimulation sim(agx, config);
  return sim.run();
}

TEST(SteadyStateCache, SharedCacheIsBitInvisible) {
  FlSimulationConfig cached = base_config();
  cached.share_schedule_cache = true;
  FlSimulationConfig uncached = base_config();
  uncached.share_schedule_cache = false;
  FlSimulationConfig escape = base_config();
  escape.share_schedule_cache = true;
  escape.bofl_options.ilp.disable_cache = true;

  const FlSimulationResult with_cache = run_with(cached);
  const FlSimulationResult without_cache = run_with(uncached);
  const FlSimulationResult with_escape = run_with(escape);
  expect_identical(with_cache, without_cache, "share_schedule_cache off");
  expect_identical(with_cache, with_escape, "IlpOptions::disable_cache");
}

TEST(SteadyStateCache, SharedCacheIsThreadCountInvariant) {
  // The memo is shared across workers; a lookup racing a solve must never
  // change what any controller dispatches.
  FlSimulationConfig serial = base_config();
  FlSimulationConfig parallel = base_config();
  parallel.threads = 8;
  expect_identical(run_with(serial), run_with(parallel), "threads 1 vs 8");
}

TEST(SteadyStateCache, FaultedRunsStayBitIdentical) {
  // ISSUE satellite: replay a faulted scenario with the cache on and off.
  faults::FaultPlan plan;
  plan.seed = 31;
  plan.name = "cache-identity-mix";
  faults::FaultSpec storm;
  storm.kind = faults::FaultKind::kThermalStorm;
  storm.start_s = 0.0;
  storm.duration_s = 1e9;
  storm.magnitude = 1.3;
  plan.faults.push_back(storm);
  faults::FaultSpec straggler;
  straggler.kind = faults::FaultKind::kStraggler;
  straggler.start_s = 0.0;
  straggler.duration_s = 1e9;
  straggler.magnitude = 3.0;
  straggler.probability = 0.3;
  plan.faults.push_back(straggler);

  FlSimulationConfig cached = base_config();
  cached.fault_plan = plan;
  cached.straggler_timeout = 2.0;
  FlSimulationConfig uncached = cached;
  uncached.share_schedule_cache = false;
  FlSimulationConfig parallel = cached;
  parallel.threads = 8;

  const FlSimulationResult a = run_with(cached);
  expect_identical(a, run_with(uncached), "faulted, cache off");
  expect_identical(a, run_with(parallel), "faulted, threads 8");
}

TEST(SteadyStateCache, FlatTablesAreOnAndCountersFlow) {
  // The default run exercises the flat device tables and the ILP memo; the
  // telemetry counters introduced by ISSUE 5 must actually tick.
  // Every client must reach the exploitation phase — the ILP memo and the
  // profile-prune cache only engage there; front compilations start with
  // Pareto construction.  A loose deadline_ratio gives each round enough
  // budget to drain the exploration backlog quickly (at the default 2.0 the
  // per-round budget only ever fits the phase-1 measurements).
  FlSimulationConfig config = base_config();
  config.rounds = 24;
  telemetry::Registry registry;
  telemetry::set_global_registry(&registry);
  (void)run_with(config);
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
  // Every exploitation solve consults the shared memo (hits are workload
  // dependent — noisy aggregates rarely repeat — but lookups must happen).
  EXPECT_GT(counter_of("ilp.cache_hit") + counter_of("ilp.cache_miss"), 0u);
}

}  // namespace
}  // namespace bofl::fl
