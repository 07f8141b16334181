// End-to-end federated simulation: a FedAvg server, a pool of simulated
// edge devices each running a pace controller, real local SGD, simulated
// time and energy.  This is the integration layer the paper's Figure 1
// describes: server-assigned deadlines, per-client pace control and
// dropouts.  examples/fl_cluster, examples/heterogeneous_fleet and
// bench/bench_fleet_scaling run it.  It is also the per-object reference
// that the sharded fleet engine (src/fleet) is to be checked against (the
// cross-engine differential oracle of ROADMAP.md), so it stays the plain
// path: fault injection, straggler cutoffs and knowledge-store priors live
// in the fleet engine.  The per-device experiments of §6 use the core
// harness directly.
//
// Every client trains the same MLP classifier (16 features, 8 classes,
// two hidden layers of 32, learning rate 0.1) on a Gaussian-blob shard and
// bills each minibatch as one ViT job (device::vit_profile()); BoFL
// clients use the default core::BoflOptions.
#pragma once

#include <vector>

#include "core/controller_factory.hpp"
#include "device/device_model.hpp"
#include "fl/client.hpp"
#include "fl/deadline_policy.hpp"
#include "fl/server.hpp"

namespace bofl::fl {

/// How the server assigns round deadlines (fl/deadline_policy.hpp).
enum class DeadlinePolicyKind {
  kUniformSlack,   ///< the paper's §6.1 protocol (default)
  kAdaptiveSlack,  ///< tighten-on-success / back-off-on-miss
};

struct FlSimulationConfig {
  std::size_t num_clients = 12;
  std::size_t clients_per_round = 4;
  std::int64_t rounds = 20;
  std::int64_t epochs = 1;
  std::int64_t minibatch_size = 16;
  std::size_t shard_examples = 256;   ///< per client (and the test set)
  double deadline_ratio = 2.0;        ///< T_max / T_min
  /// Pace controller of every client.  core::make_controller caps BoFL's τ
  /// at round T_min / 8 (fleet simulations often use small shards) and
  /// uses the device-calibrated MBO cost model.
  core::ControllerKind controller = core::ControllerKind::kBofl;
  std::uint64_t seed = 1;
  /// Non-IID skew of client shards (0 = IID).
  double shard_skew = 1.0;

  /// Server deadline policy.
  DeadlinePolicyKind deadline_policy = DeadlinePolicyKind::kUniformSlack;

  /// Client dropout (paper Fig. 1: "drop out or miss deadline?"): each
  /// selected participant independently drops before training with this
  /// probability (battery died, user closed the app, ...).
  double dropout_probability = 0.0;

  /// Worker threads for the per-round client fan-out (runtime subsystem);
  /// 0 = one per hardware thread, 1 = fully serial.  Results are
  /// bit-identical for every value — clients within a round are independent
  /// and all cross-client state (participant selection, dropout draws,
  /// aggregation, energy accounting) stays on the round loop's thread in a
  /// fixed order.  See DESIGN.md "Runtime & parallelism".
  std::size_t threads = 0;
};

struct FlRoundStats {
  std::int64_t round = 0;
  double global_loss = 0.0;
  double global_accuracy = 0.0;
  Joules energy{0.0};           ///< summed over participants, incl. MBO
  std::size_t participants = 0;
  std::size_t accepted = 0;     ///< updates that met the deadline
  Seconds deadline{0.0};        ///< what the server assigned this round
};

struct FlSimulationResult {
  std::vector<FlRoundStats> rounds;

  [[nodiscard]] Joules total_energy() const;
  [[nodiscard]] double final_accuracy() const;
  [[nodiscard]] std::size_t total_dropped_updates() const;
};

class FederatedSimulation {
 public:
  /// Homogeneous fleet: every client runs on `model` (must outlive the
  /// simulation).
  FederatedSimulation(const device::DeviceModel& model,
                      FlSimulationConfig config);

  /// Heterogeneous fleet: client c runs on devices[c % devices.size()].
  /// The server's per-round deadline floor is the *slowest* selected
  /// participant's T_min — the paper's cohort-aware deadline design.
  /// All device models must outlive the simulation.
  FederatedSimulation(
      std::vector<const device::DeviceModel*> devices,
      FlSimulationConfig config);

  /// Run all configured rounds.
  [[nodiscard]] FlSimulationResult run();

 private:
  /// Fold one finished round into the global telemetry registry / event
  /// stream (no-op when telemetry is off; never perturbs the simulation).
  void record_round_telemetry(const FlRoundStats& stats, std::size_t dropouts,
                              const std::vector<LocalUpdate>& updates) const;

  std::vector<const device::DeviceModel*> devices_;
  FlSimulationConfig config_;
};

}  // namespace bofl::fl
