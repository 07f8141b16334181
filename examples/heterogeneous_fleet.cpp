// heterogeneous_fleet: a mixed AGX/TX2 fleet with an adaptive server
// deadline policy and client dropout — the realistic deployment the paper's
// §2.1 two-level architecture targets.  The server floors each round's
// deadline at the slowest selected participant's T_min, tightens its slack
// while everyone delivers, and backs off after misses.
//
//   $ ./heterogeneous_fleet
#include <cstdio>

#include "fl/simulation.hpp"

int main() {
  using namespace bofl;
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();

  fl::FlSimulationConfig config;
  config.num_clients = 10;  // alternating AGX / TX2
  config.clients_per_round = 4;
  config.rounds = 25;
  config.epochs = 2;
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.deadline_policy = fl::DeadlinePolicyKind::kAdaptiveSlack;
  config.dropout_probability = 0.08;
  config.controller = core::ControllerKind::kBofl;
  config.seed = 424242;

  std::printf(
      "fleet: %zu clients (AGX/TX2 alternating), %zu per round, adaptive "
      "deadline slack,\n8%% dropout, per-client BoFL controllers\n\n",
      config.num_clients, config.clients_per_round);

  fl::FederatedSimulation sim({&agx, &tx2}, config);
  const fl::FlSimulationResult result = sim.run();

  std::printf("round | deadline | accepted | loss    | accuracy | energy\n");
  for (const fl::FlRoundStats& round : result.rounds) {
    std::printf(" %4lld | %6.1f s | %zu/%zu      | %.4f | %6.1f%%  | %7.1f J\n",
                static_cast<long long>(round.round + 1),
                round.deadline.value(), round.accepted, round.participants,
                round.global_loss, 100.0 * round.global_accuracy,
                round.energy.value());
  }
  std::printf(
      "\ntotals: %.0f J, final accuracy %.1f%%, %zu dropped updates "
      "(dropout + stragglers)\n",
      result.total_energy().value(), 100.0 * result.final_accuracy(),
      result.total_dropped_updates());

  // Adaptive policy behaviour: the deadline band should visibly tighten
  // whenever a run of rounds lands everything.
  std::printf(
      "\nNote how the assigned deadlines drift down while all updates land "
      "and jump back up after\na dropout-heavy round: that is the adaptive "
      "slack policy reacting to cohort outcomes.\n");
  return 0;
}
