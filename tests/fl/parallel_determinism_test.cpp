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
    EXPECT_EQ(a.backfilled, b.backfilled);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.deadline.value(), b.deadline.value());
    EXPECT_EQ(a.round_wall.value(), b.round_wall.value());
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

TEST(ParallelDeterminism, ReportingModeAdaptersStayPerClient) {
  // Reporting mode adds per-client uplink RNG and EWMA estimator state —
  // all of it keyed by client id, none shared across workers.
  FlSimulationConfig serial = fleet_config(1);
  serial.reporting_deadline_mode = true;
  serial.controller = ControllerKind::kPerformant;
  FlSimulationConfig parallel = serial;
  parallel.threads = 8;
  expect_identical(run_with(serial), run_with(parallel));
}

faults::FaultPlan storm_and_stragglers() {
  faults::FaultPlan plan;
  plan.seed = 31;
  plan.name = "determinism-mix";
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
  faults::FaultSpec dropout;
  dropout.kind = faults::FaultKind::kClientDropout;
  dropout.start_s = 0.0;
  dropout.duration_s = 1e9;
  dropout.probability = 0.2;
  plan.faults.push_back(dropout);
  return plan;
}

TEST(ParallelDeterminism, FaultedRunIsThreadCountInvariant) {
  // Fault draws are pure hashes of (plan seed, spec, round, client) and
  // device events drain on the round loop's thread, so an injected run must
  // stay bit-identical — including the straggler / backfill accounting —
  // for any worker count.
  FlSimulationConfig serial = fleet_config(1);
  serial.fault_plan = storm_and_stragglers();
  serial.straggler_timeout = 2.0;
  serial.backfill_dropouts = true;
  FlSimulationConfig parallel = serial;
  parallel.threads = 8;
  const FlSimulationResult a = run_with(serial);
  const FlSimulationResult b = run_with(parallel);
  expect_identical(a, b);
  // Non-vacuity: the plan above must actually bite somewhere.
  std::size_t disrupted = 0;
  for (const FlRoundStats& round : a.rounds) {
    disrupted += round.backfilled + round.timed_out;
  }
  EXPECT_GT(disrupted, 0u);
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
