// fl_cluster: a full federated-learning fleet — FedAvg server, a pool of
// simulated AGX clients each running its own BoFL controller, real local
// SGD on non-IID shards — compared against the same fleet at Performant
// pacing.  Demonstrates the paper's end goal: the fleet learns equally well
// while every client burns less battery.
//
//   $ ./fl_cluster
#include <cstdio>

#include "fl/simulation.hpp"

int main() {
  using namespace bofl;
  const device::DeviceModel agx = device::jetson_agx();

  fl::FlSimulationConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 25;
  config.epochs = 2;
  config.minibatch_size = 8;
  config.shard_examples = 512;   // 64 minibatches -> 128 jobs/round
  config.deadline_ratio = 3.0;
  config.shard_skew = 2.0;       // visibly non-IID client data
  config.seed = 2022;

  std::printf("fleet: %zu clients, %zu per round, %lld rounds, task=%s\n\n",
              config.num_clients, config.clients_per_round,
              static_cast<long long>(config.rounds),
              device::vit_profile().name.c_str());

  fl::FlSimulationResult results[2];
  const core::ControllerKind kinds[2] = {core::ControllerKind::kBofl,
                                         core::ControllerKind::kPerformant};
  for (int k = 0; k < 2; ++k) {
    config.controller = kinds[k];
    fl::FederatedSimulation simulation(agx, config);
    results[k] = simulation.run();

    std::printf("--- %s pacing ---\n", to_string(kinds[k]));
    std::printf("round | loss    | accuracy | round energy | accepted\n");
    for (const fl::FlRoundStats& round : results[k].rounds) {
      std::printf(" %4lld | %.4f | %7.1f%% | %9.1f J  | %zu/%zu\n",
                  static_cast<long long>(round.round + 1), round.global_loss,
                  100.0 * round.global_accuracy, round.energy.value(),
                  round.accepted, round.participants);
    }
    std::printf("total energy: %.0f J, final accuracy: %.1f%%\n\n",
                results[k].total_energy().value(),
                100.0 * results[k].final_accuracy());
  }

  const double saved = 1.0 - results[0].total_energy().value() /
                                 results[1].total_energy().value();
  std::printf(
      "=> BoFL fleet saved %.1f%% energy; accuracy difference %.2f "
      "percentage points;\n   dropped updates: BoFL=%zu Performant=%zu\n",
      100.0 * saved,
      100.0 * (results[0].final_accuracy() - results[1].final_accuracy()),
      results[0].total_dropped_updates(),
      results[1].total_dropped_updates());
  return 0;
}
