// Golden round trip for the controller-state file (state_file.hpp) under
// churn: fleet scenarios let clients leave and re-join mid-task, and the
// persisted profile is the only thing that survives.  The churn episode
// modelled here is save -> leave (controller destroyed) -> re-join (fresh
// controller + import), exercised mid-Phase-2, mid-exploitation and
// mid-fault.  Contract:
//   1. The snapshot's observation rows round-trip byte for byte through
//      the re-join, and a second re-join re-saves the first one's file
//      whole, so a client can churn any number of times without profile
//      drift.
//   2. Re-joining is deterministic: two clients restored from the same
//      snapshot replay bit-identical traces for the rest of the task.
//   3. The re-joined client stays on the trajectory: it never re-explores
//      a config the snapshot already covers, never regresses to Phase 1,
//      meets every deadline, and lands in exploitation with energy within
//      a few percent of the uninterrupted run (exact per-round equality is
//      NOT promised mid-Phase-2 — the uninterrupted controller's hyperopt
//      RNG stream is mid-flight while the re-joined one restarts — but
//      from an exploitation-phase snapshot the phase sequence matches the
//      uninterrupted run round for round).
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/harness.hpp"
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

bool same_trace(const RoundTrace& a, const RoundTrace& b) {
  if (a.phase != b.phase || a.runs.size() != b.runs.size() ||
      a.explored_flat_ids != b.explored_flat_ids) {
    return false;
  }
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (!(a.runs[i].config == b.runs[i].config) ||
        a.runs[i].jobs != b.runs[i].jobs ||
        a.runs[i].true_time.value() != b.runs[i].true_time.value() ||
        a.runs[i].true_energy.value() != b.runs[i].true_energy.value()) {
      return false;
    }
  }
  return true;
}

/// Clause 1: `rejoined`, restored from `path_a`, re-saves the same
/// observation rows, and a controller restored from that second file
/// re-saves it whole.
void expect_rejoin_is_byte_stable(const BoflController& rejoined,
                                  const device::DeviceModel& model,
                                  const FlTaskSpec& task,
                                  const std::string& path_a,
                                  const std::string& tag) {
  const priors::ClusterKey key = priors::ClusterKey::of(model, task.profile);
  const std::string stem = ::testing::TempDir() + "/churn_" + tag;
  const std::string path_b = stem + "_b.json";
  const std::string path_c = stem + "_c.json";
  write_state_file(rejoined, key, 0, path_b);
  BoflController again(model, task.profile, {}, fast_options(model.name()),
                       991);
  again.import_state(read_state_file(path_b, key));
  write_state_file(again, key, 0, path_c);
  EXPECT_EQ(observation_rows(slurp(path_a)), observation_rows(slurp(path_b)))
      << tag;
  EXPECT_EQ(slurp(path_b), slurp(path_c)) << tag;
  std::remove(path_b.c_str());
  std::remove(path_c.c_str());
}

/// The full churn episode from a controller interrupted after `cut`
/// rounds: save, drop the original, re-join twice from the file, finish
/// the task on both, and check every clause of the contract against the
/// uninterrupted traces.
void run_churn_episode(const device::DeviceModel& model,
                       const FlTaskSpec& task,
                       const std::vector<RoundSpec>& rounds,
                       const std::vector<RoundTrace>& uninterrupted,
                       std::int64_t cut, Phase expected_phase_at_cut,
                       double energy_tolerance, const std::string& tag) {
  const priors::ClusterKey key = priors::ClusterKey::of(model, task.profile);
  const std::string path_a =
      ::testing::TempDir() + "/churn_" + tag + "_a.json";
  std::set<std::size_t> known;
  {
    // First life: interrupted at `cut`, persists, leaves.
    BoflController first(model, task.profile, {},
                         fast_options(model.name()), 72);
    for (std::int64_t i = 0; i < cut; ++i) {
      (void)first.run_round(rounds[static_cast<std::size_t>(i)]);
    }
    ASSERT_EQ(first.phase(), expected_phase_at_cut) << tag;
    write_state_file(first, key, cut, path_a);
    for (const auto& obs : first.export_state()) {
      known.insert(obs.config_flat);
    }
  }

  // Re-join: two independent restores from the same snapshot.
  const auto saved = read_state_file(path_a, key);
  BoflController rejoined(model, task.profile, {},
                          fast_options(model.name()), 991);
  rejoined.import_state(saved);
  BoflController twin(model, task.profile, {},
                      fast_options(model.name()), 991);
  twin.import_state(saved);

  expect_rejoin_is_byte_stable(rejoined, model, task, path_a, tag);
  EXPECT_EQ(rejoined.phase(), expected_phase_at_cut) << tag;

  double resumed_energy = 0.0;
  double uninterrupted_energy = 0.0;
  std::size_t phase_matches = 0;
  const std::size_t tail = rounds.size() - static_cast<std::size_t>(cut);
  for (std::size_t i = static_cast<std::size_t>(cut); i < rounds.size();
       ++i) {
    const RoundTrace trace = rejoined.run_round(rounds[i]);
    const RoundTrace twin_trace = twin.run_round(rounds[i]);
    // Clause 2: bit-identical replay across re-joins.
    EXPECT_TRUE(same_trace(trace, twin_trace))
        << tag << ": re-join replay diverged at round " << i;
    // Clause 3: on-trajectory.
    EXPECT_TRUE(trace.deadline_met()) << tag << " round " << i;
    EXPECT_NE(trace.phase, Phase::kSafeRandomExploration)
        << tag << ": re-join regressed to Phase 1 at round " << i;
    for (const std::size_t flat : trace.explored_flat_ids) {
      EXPECT_EQ(known.count(flat), 0U)
          << tag << ": re-explored config " << flat << " at round " << i;
    }
    if (trace.phase == uninterrupted[i].phase) {
      ++phase_matches;
    }
    resumed_energy += trace.energy().value() + trace.mbo_energy.value();
    uninterrupted_energy +=
        uninterrupted[i].energy().value() + uninterrupted[i].mbo_energy.value();
  }
  EXPECT_EQ(rejoined.phase(), Phase::kExploitation) << tag;
  EXPECT_NEAR(resumed_energy, uninterrupted_energy,
              energy_tolerance * uninterrupted_energy)
      << tag << ": resumed tail spent " << resumed_energy
      << " J vs uninterrupted " << uninterrupted_energy << " J";
  if (expected_phase_at_cut == Phase::kExploitation) {
    // From an exploitation snapshot the phase sequence is the
    // uninterrupted one, round for round.
    EXPECT_EQ(phase_matches, tail) << tag;
  }
  std::remove(path_a.c_str());
}

TEST(StateIoChurn, RejoinMidPhase2AndMidExploitationStaysOnTrajectory) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 30;
  const auto rounds = make_rounds(task, agx, 2.5, 71);

  BoflController full(agx, task.profile, {}, fast_options(agx.name()), 72);
  std::vector<RoundTrace> uninterrupted;
  for (const RoundSpec& spec : rounds) {
    uninterrupted.push_back(full.run_round(spec));
  }
  ASSERT_EQ(full.phase(), Phase::kExploitation);

  run_churn_episode(agx, task, rounds, uninterrupted, 8,
                    Phase::kParetoConstruction, 0.10, "mid_phase2");
  run_churn_episode(agx, task, rounds, uninterrupted, 14,
                    Phase::kExploitation, 0.05, "mid_phase3");
}

// Mid-fault churn: the client leaves while a thermal storm is demoting its
// measurements and re-joins INTO the same storm.  The snapshot holds the
// demoted aggregates; the round trip must still be byte-stable and the
// re-joined client must replay deterministically under the fault channel.
TEST(StateIoChurn, RejoinMidFaultIsByteStableAndDeterministic) {
  const device::DeviceModel agx = device::jetson_agx();
  FlTaskSpec task = cifar10_vit_task(agx.name());
  task.num_rounds = 16;
  const auto rounds = make_rounds(task, agx, 2.5, 73);

  faults::FaultPlan plan;
  plan.seed = 9;
  faults::FaultSpec storm;
  storm.kind = faults::FaultKind::kThermalStorm;
  storm.start_s = 0.0;
  storm.duration_s = 1e9;  // active across the leave AND the re-join
  storm.magnitude = 1.3;
  plan.faults.push_back(storm);
  const faults::FaultInjector injector(plan, 74);
  const auto channel = injector.make_device_channel(0);

  const priors::ClusterKey key = priors::ClusterKey::of(agx, task.profile);
  const std::string path_a = ::testing::TempDir() + "/churn_mid_fault_a.json";
  {
    BoflController first(agx, task.profile, {}, fast_options(agx.name()),
                         74);
    first.install_fault_model(channel.get());
    for (std::size_t i = 0; i < 8; ++i) {
      (void)first.run_round(rounds[i]);
    }
    ASSERT_FALSE(first.export_state().empty());
    write_state_file(first, key, 8, path_a);
  }

  const auto saved = read_state_file(path_a, key);
  BoflController rejoined(agx, task.profile, {}, fast_options(agx.name()),
                          991);
  rejoined.import_state(saved);
  expect_rejoin_is_byte_stable(rejoined, agx, task, path_a, "mid_fault");

  BoflController twin(agx, task.profile, {}, fast_options(agx.name()), 991);
  twin.import_state(saved);
  rejoined.install_fault_model(channel.get());
  twin.install_fault_model(channel.get());
  for (std::size_t i = 8; i < rounds.size(); ++i) {
    const RoundTrace a = rejoined.run_round(rounds[i]);
    const RoundTrace b = twin.run_round(rounds[i]);
    EXPECT_TRUE(same_trace(a, b)) << "mid-fault replay diverged at round "
                                  << i;
  }
  std::remove(path_a.c_str());
}

}  // namespace
}  // namespace bofl::core
