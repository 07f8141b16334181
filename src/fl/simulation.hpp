// End-to-end federated simulation: a FedAvg server, a pool of simulated
// edge devices each running a pace controller, real local SGD, simulated
// time and energy.  This is the integration layer the paper's Figure 1
// describes; the per-device experiments of §6 use the core harness
// directly, while the fleet-level examples and tests use this.
#pragma once

#include <memory>
#include <optional>

#include "core/controller_factory.hpp"
#include "device/device_model.hpp"
#include "faults/fault_plan.hpp"
#include "fl/client.hpp"
#include "fl/deadline_policy.hpp"
#include "fl/network.hpp"
#include "fl/server.hpp"
#include "priors/prior_policy.hpp"

namespace bofl::priors {
class KnowledgeStore;
}

namespace bofl::fl {

/// How the server assigns round deadlines (fl/deadline_policy.hpp).
enum class DeadlinePolicyKind {
  kUniformSlack,   ///< the paper's §6.1 protocol (default)
  kStaticTimeout,  ///< vanilla FL: one fixed timeout
  kAdaptiveSlack,  ///< tighten-on-success / back-off-on-miss
};

/// Which model architecture the fleet trains.
enum class FleetModel {
  kMlp,   ///< Gaussian-blob classification (image-task stand-in)
  kLstm,  ///< sequence classification (IMDB-LSTM stand-in)
};

struct FlSimulationConfig {
  std::size_t num_clients = 12;
  std::size_t clients_per_round = 4;
  std::int64_t rounds = 20;
  std::int64_t epochs = 1;
  std::int64_t minibatch_size = 16;
  std::size_t shard_examples = 256;   ///< per client (and the test set)
  double learning_rate = 0.1;
  double deadline_ratio = 2.0;        ///< T_max / T_min
  core::ControllerKind controller = core::ControllerKind::kBofl;
  std::uint64_t seed = 1;
  // Model / data geometry.
  std::size_t feature_dim = 16;
  std::size_t classes = 8;
  std::size_t hidden = 32;
  /// Hardware footprint billed per minibatch job.
  device::WorkloadProfile profile = device::vit_profile();
  /// Non-IID skew of client shards (0 = IID).
  double shard_skew = 1.0;
  /// Pace-controller tuning for BoFL clients.  core::make_controller caps τ
  /// at round T_min / 8 (fleet simulations often use small shards) and
  /// replaces mbo_cost with the device-calibrated model.
  core::BoflOptions bofl_options{};

  /// Model architecture; kLstm switches the data to sequences and (unless
  /// overridden) the hardware footprint to the LSTM profile.
  FleetModel model = FleetModel::kMlp;

  /// Server deadline policy.
  DeadlinePolicyKind deadline_policy = DeadlinePolicyKind::kUniformSlack;
  double static_timeout_slack = 2.5;  ///< kStaticTimeout: timeout/T_min

  /// Client dropout (paper Fig. 1: "drop out or miss deadline?"): each
  /// selected participant independently drops before training with this
  /// probability (battery died, user closed the app, ...).
  double dropout_probability = 0.0;

  /// Fault injection (src/faults): device-level episodes run through each
  /// client's controller observer, FL-level kinds (stragglers, dropouts,
  /// deadline jitter) through the round loop.  All fault events land in the
  /// telemetry stream.  Unset = clean run.
  std::optional<faults::FaultPlan> fault_plan;
  /// Server-side straggler handling: wait at most this multiple of the
  /// round deadline for late reports before closing the round (bounds
  /// FlRoundStats::round_wall; reports past the cutoff count as timed out).
  /// 0 = wait for every report (seed behavior).
  double straggler_timeout = 0.0;
  /// Replace dropped-out participants with fresh draws from the remaining
  /// pool (serial, round-loop RNG) so the cohort keeps its size.
  bool backfill_dropouts = false;

  /// Reporting-deadline mode (§3.1 footnote 3): the server's deadline also
  /// covers the model upload; each client infers its training deadline
  /// through a bandwidth-measuring ReportingDeadlineAdapter.
  bool reporting_deadline_mode = false;
  double uplink_mbps = 5.0;  ///< paper's 4G-LTE example (§6.5 footnote)

  /// Share one ilp::ScheduleCache across the fleet's BoFL controllers so a
  /// cohort of clients facing the same round problem (identical Pareto
  /// set, job count, deadline) runs branch-and-bound once instead of once
  /// per client.  Bit-identical on or off, for any `threads` value (the
  /// cache keys on exact bits and the solver is deterministic); the
  /// bofl_options.ilp.disable_cache escape hatch additionally bypasses an
  /// attached cache per solve.  Ignored for non-BoFL controllers.
  bool share_schedule_cache = true;

  /// Fleet knowledge plane (src/priors).  When set, every BoFL client asks
  /// the store for its (device model × workload) cluster's prior under
  /// `prior_policy` at construction, and after the run each client publishes
  /// back (outcome feedback always; a distilled snapshot when it reached
  /// exploitation), in client-id order so the store content is independent
  /// of `threads`.  Non-owning; must outlive the simulation.  nullptr = no
  /// knowledge plane; kCold keeps an attached store read-only and the run
  /// bit-identical to one without a store.
  priors::KnowledgeStore* knowledge = nullptr;
  priors::PriorPolicy prior_policy = priors::PriorPolicy::kVerify;

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
  std::size_t backfilled = 0;   ///< dropouts replaced by fresh draws
  std::size_t timed_out = 0;    ///< reports past the straggler cutoff
  /// Server wall time for the round: the last report's arrival, bounded by
  /// the straggler cutoff when one is configured.
  Seconds round_wall{0.0};
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
  /// Fleet-wide exploitation-ILP memo (share_schedule_cache); thread-safe,
  /// handed to every BoFL controller as a non-owning pointer.
  std::unique_ptr<ilp::ScheduleCache> schedule_cache_;
};

}  // namespace bofl::fl
