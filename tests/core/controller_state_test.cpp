// Controller state persistence: export/import and the state file, a
// one-cluster knowledge store (state_file.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "core/harness.hpp"
#include "core/oracle_controller.hpp"
#include "core/state_file.hpp"
#include "faults/fault_injector.hpp"

namespace bofl::core {
namespace {

BoflOptions fast_options(const std::string& device_name) {
  BoflOptions options;
  options.mbo_cost = mbo_cost_for_device(device_name);
  options.mbo.hyperopt.num_restarts = 2;
  options.mbo.hyperopt.max_iterations_per_start = 80;
  return options;
}

TEST(StateIo, ExportContainsEveryExploredConfig) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 12;
  const auto rounds = make_rounds(task, agx, 2.0, 51);
  BoflController bofl(agx, task.profile, {}, fast_options(agx.name()), 52);
  (void)run_task(bofl, rounds);

  const auto saved = bofl.export_state();
  EXPECT_EQ(saved.size(), bofl.observed_profiles().size());
  for (const auto& obs : saved) {
    EXPECT_GT(obs.jobs, 0.0);
    EXPECT_GT(obs.mean_energy, 0.0);
    EXPECT_GT(obs.mean_latency, 0.0);
    EXPECT_LT(obs.config_flat, agx.space().size());
  }
  // Sorted by config id for stable files.
  for (std::size_t i = 1; i < saved.size(); ++i) {
    EXPECT_LT(saved[i - 1].config_flat, saved[i].config_flat);
  }
}

TEST(StateIo, StoreRoundTripPreservesValues) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = imdb_lstm_task(agx.name());
  task.num_rounds = 10;
  const auto rounds = make_rounds(task, agx, 2.5, 53);
  BoflController bofl(agx, task.profile, {}, fast_options(agx.name()), 54);
  (void)run_task(bofl, rounds);

  const priors::ClusterKey key = priors::ClusterKey::of(agx, task.profile);
  const std::string path = ::testing::TempDir() + "/bofl_state_test.json";
  write_state_file(bofl, key, task.num_rounds, path);
  const auto loaded = read_state_file(path, key);
  const auto original = bofl.export_state();
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].config_flat, original[i].config_flat);
    EXPECT_EQ(loaded[i].jobs, original[i].jobs);
    EXPECT_EQ(loaded[i].mean_energy, original[i].mean_energy);
    EXPECT_EQ(loaded[i].mean_latency, original[i].mean_latency);
  }
  // The state lives under the controller's own cluster only.
  EXPECT_THROW(
      (void)read_state_file(path, priors::ClusterKey{"jetson-tx2", "lstm"}),
      std::invalid_argument);
  std::remove(path.c_str());
}

// Golden round trip: save (A) -> load -> import -> save (B) must keep the
// observation rows byte for byte, and one more generation (C) must
// reproduce B whole.  A one-ulp drift per save/load generation would
// silently corrupt long-lived profiles (devices save and resume hundreds
// of times over a task's 500-10000 rounds).  A and B differ elsewhere on
// purpose: source_rounds, t_x_max_s and the GP fits describe the
// controller that saved the file, and B's has run no round.
void expect_byte_stable_round_trip(const BoflController& controller,
                                   const device::DeviceModel& model,
                                   const FlTaskSpec& task,
                                   std::int64_t rounds_run,
                                   const std::string& tag) {
  const priors::ClusterKey key = priors::ClusterKey::of(model, task.profile);
  const std::string stem = ::testing::TempDir() + "/state_golden_" + tag;
  write_state_file(controller, key, rounds_run, stem + "_a.json");
  BoflController resumed(model, task.profile, {}, fast_options(model.name()),
                         991);
  resumed.import_state(read_state_file(stem + "_a.json", key));
  write_state_file(resumed, key, 0, stem + "_b.json");
  BoflController again(model, task.profile, {}, fast_options(model.name()),
                       991);
  again.import_state(read_state_file(stem + "_b.json", key));
  write_state_file(again, key, 0, stem + "_c.json");

  EXPECT_EQ(observation_rows(slurp(stem + "_a.json")),
            observation_rows(slurp(stem + "_b.json")))
      << "snapshot " << tag;
  EXPECT_EQ(slurp(stem + "_b.json"), slurp(stem + "_c.json"))
      << "snapshot " << tag;
  for (const char* generation : {"_a.json", "_b.json", "_c.json"}) {
    std::remove((stem + generation).c_str());
  }
}

TEST(StateIo, GoldenRoundTripIsByteIdenticalAcrossPhases) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 30;
  const auto rounds = make_rounds(task, agx, 2.5, 71);

  BoflController bofl(agx, task.profile, {}, fast_options(agx.name()), 72);
  Phase seen_phase1 = Phase::kExploitation;
  for (std::int64_t i = 0; i < task.num_rounds; ++i) {
    if (i == 2) {
      seen_phase1 = bofl.phase();
      expect_byte_stable_round_trip(bofl, agx, task, i, "phase1");
    } else if (bofl.phase() == Phase::kParetoConstruction && i > 2) {
      expect_byte_stable_round_trip(bofl, agx, task, i, "phase2");
    }
    (void)bofl.run_round(rounds[i]);
  }
  EXPECT_EQ(seen_phase1, Phase::kSafeRandomExploration);
  ASSERT_EQ(bofl.phase(), Phase::kExploitation);
  expect_byte_stable_round_trip(bofl, agx, task, task.num_rounds, "phase3");
}

TEST(StateIo, GoldenRoundTripMidFaultEpisode) {
  // Snapshot while a thermal storm is active and the sensor is flaky: the
  // aggregates then hold demoted / winsorized values — exactly the state a
  // device rebooting mid-incident would persist.
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 8;
  const auto rounds = make_rounds(task, agx, 2.5, 73);

  faults::FaultPlan plan;
  plan.seed = 9;
  faults::FaultSpec storm;
  storm.kind = faults::FaultKind::kThermalStorm;
  storm.start_s = 0.0;
  storm.duration_s = 1e9;  // active for the whole run
  storm.magnitude = 1.4;
  plan.faults.push_back(storm);
  faults::FaultSpec flaky;
  flaky.kind = faults::FaultKind::kSensorDropout;
  flaky.start_s = 0.0;
  flaky.duration_s = 1e9;
  flaky.magnitude = 4.0;
  flaky.probability = 0.3;
  plan.faults.push_back(flaky);
  const faults::FaultInjector injector(plan, 74);
  const auto channel = injector.make_device_channel(0);

  BoflController bofl(agx, task.profile, {}, fast_options(agx.name()), 74);
  bofl.install_fault_model(channel.get());
  for (const RoundSpec& spec : rounds) {
    (void)bofl.run_round(spec);
  }
  EXPECT_FALSE(bofl.export_state().empty());
  expect_byte_stable_round_trip(bofl, agx, task, task.num_rounds,
                                "mid_fault");
}

TEST(StateIo, LoadRejectsMissingFile) {
  EXPECT_THROW((void)read_state_file("/no/such/state.json",
                                     priors::ClusterKey{"jetson-agx", "vit"}),
               std::invalid_argument);
}

// Hostile state files: each must be a typed error at the file boundary,
// where the same file with a well-formed row loads.
void expect_load_rejects(const std::string& name, const std::string& row) {
  const std::string path = ::testing::TempDir() + "/bofl_state_" + name;
  const priors::ClusterKey key{"jetson-agx", "vit"};
  const auto write_store = [&](const std::string& observation) {
    std::ofstream out(path);
    out << R"({"version":1,"clusters":[{"device":"jetson-agx",)"
        << R"("workload":"vit","snapshot":{"observations":[)" << observation
        << "]}}]}\n";
  };
  write_store("[100,10,5,0.5]");
  EXPECT_EQ(read_state_file(path, key).size(), 1U);
  write_store(row);
  EXPECT_THROW((void)read_state_file(path, key), std::invalid_argument)
      << row;
  std::remove(path.c_str());
}

TEST(StateIo, LoadRejectsConfigIdPastSizeT) {
  expect_load_rejects("huge_id.json", "[1e300,10,5,0.5]");
}

TEST(StateIo, LoadRejectsFractionalConfigId) {
  expect_load_rejects("fractional_id.json", "[5.7,10,5,0.5]");
}

// JSON has no inf; strtod reads 1e999 as one, and the parser rejects it.
TEST(StateIo, LoadRejectsInfiniteLatency) {
  expect_load_rejects("inf_latency.json", "[100,10,5,1e999]");
}

TEST(StateIo, ResumedControllerSkipsExploration) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 25;
  const auto rounds = make_rounds(task, agx, 2.0, 55);

  // First life: run long enough to converge, then persist.
  BoflController first(agx, task.profile, {}, fast_options(agx.name()), 56);
  (void)run_task(first, rounds);
  ASSERT_EQ(first.phase(), Phase::kExploitation);
  const auto saved = first.export_state();

  // Second life: resume and verify it never re-explores.
  BoflController resumed(agx, task.profile, {}, fast_options(agx.name()), 57);
  resumed.import_state(saved);
  EXPECT_EQ(resumed.phase(), Phase::kExploitation);
  const auto more_rounds = make_rounds(task, agx, 2.0, 58);
  const TaskResult result = run_task(resumed, more_rounds);
  EXPECT_TRUE(result.all_deadlines_met());
  EXPECT_EQ(result.rounds_in_phase(Phase::kSafeRandomExploration), 0);
  EXPECT_EQ(result.rounds_in_phase(Phase::kParetoConstruction), 0);
  for (const RoundTrace& trace : result.rounds) {
    EXPECT_TRUE(trace.explored_flat_ids.empty());
  }
}

TEST(StateIo, ResumedControllerMatchesWarmEnergy) {
  // A resumed controller's energy over N rounds should match the original
  // controller's exploitation-phase energy, not its cold-start energy.
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 25;
  const auto rounds = make_rounds(task, agx, 2.5, 59);

  BoflController first(agx, task.profile, {}, fast_options(agx.name()), 60);
  const TaskResult cold = run_task(first, rounds);

  BoflController resumed(agx, task.profile, {}, fast_options(agx.name()), 61);
  resumed.import_state(first.export_state());
  const TaskResult warm = run_task(resumed, rounds);

  EXPECT_LT(total_energy(warm).value(), total_energy(cold).value());
  OracleController oracle(agx, task.profile, {}, 62);
  const TaskResult ideal = run_task(oracle, rounds);
  EXPECT_LT(regret_vs(warm, ideal), 0.05);
}

TEST(StateIo, PartialStateResumesInParetoPhase) {
  const device::DeviceModel agx = device::jetson_agx();
  const FlTaskSpec task = cifar10_vit_task(agx.name());
  // A minimal save: x_max plus two other points — not enough coverage.
  const std::size_t x_max_flat =
      agx.space().to_flat(agx.space().max_config());
  std::vector<BoflController::SavedObservation> saved{
      {x_max_flat, 50.0,
       agx.energy(task.profile, agx.space().max_config()).value(),
       agx.latency(task.profile, agx.space().max_config()).value()},
      {100, 10.0, 5.0, 0.5},
      {200, 10.0, 4.5, 0.6}};
  BoflController resumed(agx, task.profile, {}, fast_options(agx.name()), 63);
  resumed.import_state(saved);
  EXPECT_EQ(resumed.phase(), Phase::kParetoConstruction);
}

TEST(StateIo, StateWithoutXmaxRestartsExploration) {
  const device::DeviceModel agx = device::jetson_agx();
  const FlTaskSpec task = cifar10_vit_task(agx.name());
  std::vector<BoflController::SavedObservation> saved{
      {100, 10.0, 5.0, 0.5}};
  BoflController resumed(agx, task.profile, {}, fast_options(agx.name()), 64);
  resumed.import_state(saved);
  EXPECT_EQ(resumed.phase(), Phase::kSafeRandomExploration);
}

// The controller owns the resume floor: a state saved after any prefix of a
// run, however thin, loads and runs on.  For each paper task on both
// devices one 40-round run is saved after r rounds for every r below, and
// each save resumes a fresh controller for 20 more rounds.  Every resume
// must finish, and with no faults every deadline is feasible, so Eqn. 2
// allows no miss.
TEST(StateIo, ResumeAfterAnyPrefixRunsOnAndMeetsEveryDeadline) {
  const std::int64_t prefixes[] = {0, 1, 2, 3, 5, 8, 20, 40};
  for (const device::DeviceModel& model :
       {device::jetson_agx(), device::jetson_tx2()}) {
    for (FlTaskSpec task : paper_tasks(model.name())) {
      SCOPED_TRACE(model.name() + " " + task.name);
      const priors::ClusterKey key =
          priors::ClusterKey::of(model, task.profile);
      const std::string path =
          ::testing::TempDir() + "/state_prefix_" + key.device + "_" +
          key.workload + ".json";
      task.num_rounds = 40;
      const auto rounds = make_rounds(task, model, 2.0, 81);
      task.num_rounds = 20;
      const auto more_rounds = make_rounds(task, model, 2.0, 84);
      BoflController first(model, task.profile, {},
                           fast_options(model.name()), 82);
      std::int64_t done = 0;
      for (const std::int64_t r : prefixes) {
        for (; done < r; ++done) {
          (void)first.run_round(rounds[static_cast<std::size_t>(done)]);
        }
        write_state_file(first, key, r, path);
        BoflController resumed(model, task.profile, {},
                               fast_options(model.name()), 83);
        resumed.import_state(read_state_file(path, key));
        EXPECT_TRUE(run_task(resumed, more_rounds).all_deadlines_met())
            << "saved after " << r << " rounds";
      }
      std::remove(path.c_str());
    }
  }
}

TEST(StateIo, ImportRejectsUsedControllerAndBadData) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 1;
  const auto rounds = make_rounds(task, agx, 2.0, 65);
  BoflController used(agx, task.profile, {}, fast_options(agx.name()), 66);
  (void)used.run_round(rounds[0]);
  EXPECT_THROW(used.import_state({}), std::invalid_argument);

  BoflController fresh(agx, task.profile, {}, fast_options(agx.name()), 67);
  EXPECT_THROW(
      fresh.import_state({{agx.space().size(), 1.0, 1.0, 1.0}}),
      std::invalid_argument);
  EXPECT_THROW(fresh.import_state({{0, 0.0, 1.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      fresh.import_state(
          {{0, 1.0, 1.0, std::numeric_limits<double>::infinity()}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace bofl::core
