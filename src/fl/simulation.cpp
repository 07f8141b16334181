#include "fl/simulation.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl::fl {

namespace {

// The shared model and data geometry (see the header comment).
constexpr std::size_t kFeatureDim = 16;
constexpr std::size_t kClasses = 8;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kMlpDepth = 2;
constexpr double kLearningRate = 0.1;

}  // namespace

Joules FlSimulationResult::total_energy() const {
  Joules total{0.0};
  for (const FlRoundStats& r : rounds) {
    total += r.energy;
  }
  return total;
}

double FlSimulationResult::final_accuracy() const {
  return rounds.empty() ? 0.0 : rounds.back().global_accuracy;
}

std::size_t FlSimulationResult::total_dropped_updates() const {
  std::size_t dropped = 0;
  for (const FlRoundStats& r : rounds) {
    dropped += r.participants - r.accepted;
  }
  return dropped;
}

FederatedSimulation::FederatedSimulation(const device::DeviceModel& model,
                                         FlSimulationConfig config)
    : FederatedSimulation(std::vector<const device::DeviceModel*>{&model},
                          std::move(config)) {}

FederatedSimulation::FederatedSimulation(
    std::vector<const device::DeviceModel*> devices, FlSimulationConfig config)
    : devices_(std::move(devices)), config_(std::move(config)) {
  BOFL_REQUIRE(!devices_.empty(), "need at least one device model");
  for (const device::DeviceModel* model : devices_) {
    BOFL_REQUIRE(model != nullptr, "device models must be non-null");
  }
  BOFL_REQUIRE(config_.clients_per_round >= 1 &&
                   config_.clients_per_round <= config_.num_clients,
               "participants per round must be in [1, num_clients]");
  BOFL_REQUIRE(config_.rounds >= 1, "need at least one round");
}

FlSimulationResult FederatedSimulation::run() {
  BOFL_REQUIRE(config_.dropout_probability >= 0.0 &&
                   config_.dropout_probability < 1.0,
               "dropout probability must be in [0, 1)");
  Rng rng(config_.seed);
  Rng dropout_rng(config_.seed ^ 0xD0D0ULL);

  // Build the client pool: per-client non-IID shards, shared architecture.
  const auto factory = [&]() {
    Rng model_rng(config_.seed ^ 0xA11CE5ULL);  // identical init everywhere
    return nn::make_mlp_classifier(kFeatureDim, kHidden, kMlpDepth, kClasses,
                                   model_rng);
  };
  const auto make_shard = [&](std::uint64_t seed, double skew) {
    return nn::make_classification(config_.shard_examples, kFeatureDim,
                                   kClasses, seed, /*noise=*/0.8, skew);
  };
  const device::WorkloadProfile profile = device::vit_profile();

  const std::int64_t minibatches_per_client =
      static_cast<std::int64_t>(config_.shard_examples) /
      config_.minibatch_size;
  const std::int64_t jobs_per_round =
      minibatches_per_client * config_.epochs;

  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Seconds> client_t_min;
  clients.reserve(config_.num_clients);
  client_t_min.reserve(config_.num_clients);
  for (std::size_t c = 0; c < config_.num_clients; ++c) {
    const device::DeviceModel& model = *devices_[c % devices_.size()];
    const Seconds t_min_c = model.round_t_min(profile, jobs_per_round);
    client_t_min.push_back(t_min_c);
    clients.push_back(std::make_unique<Client>(
        c, make_shard(config_.seed * 7919 + c, config_.shard_skew), factory,
        kLearningRate, config_.minibatch_size,
        core::make_controller(config_.controller, model, profile,
                              device::NoiseModel{}, core::BoflOptions{},
                              config_.seed * 104729 + c, t_min_c)));
  }

  // Held-out IID test set for global evaluation.
  const nn::Dataset test =
      make_shard(config_.seed ^ 0x7E57ULL, /*skew=*/0.0);
  nn::Sequential eval_model = factory();

  FedAvgServer server(eval_model.get_flat_parameters());

  // Server deadline policy (fl/deadline_policy.hpp).
  std::unique_ptr<DeadlinePolicy> policy;
  switch (config_.deadline_policy) {
    case DeadlinePolicyKind::kUniformSlack:
      policy = std::make_unique<UniformSlackPolicy>(
          config_.deadline_ratio, config_.seed ^ 0xDEAD11ULL);
      break;
    case DeadlinePolicyKind::kAdaptiveSlack:
      policy = std::make_unique<AdaptiveSlackPolicy>();
      break;
  }

  // Worker pool for the per-round client fan-out.  Clients are independent
  // within a round (own shard, model replica, controller), so each one is a
  // task; everything cross-client stays on this thread.
  runtime::ThreadPool pool(config_.threads);

  FlSimulationResult result;
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));
  for (std::int64_t round = 0; round < config_.rounds; ++round) {
    const std::vector<std::size_t> participants = server.select_participants(
        config_.num_clients, config_.clients_per_round, rng);
    // The deadline must be feasible for the slowest selected participant.
    const Seconds server_deadline = policy->assign(
        round, cohort_deadline_floor(client_t_min, participants));

    FlRoundStats stats;
    stats.round = round;
    stats.participants = participants.size();
    stats.deadline = server_deadline;

    // Serial pre-pass: every shared-RNG draw happens here, in participant
    // order, so the dropout stream is independent of the worker count.
    std::vector<std::size_t> active;
    std::size_t dropped = 0;
    active.reserve(participants.size());
    for (std::size_t id : participants) {
      if (dropout_rng.bernoulli(config_.dropout_probability)) {
        ++dropped;  // the device vanished before training started
        continue;
      }
      active.push_back(id);
    }

    // Parallel fan-out: local training runs concurrently, one task per
    // active client.  Results land in participant-order slots, keeping every
    // downstream reduction bit-identical to the serial loop.
    std::vector<LocalUpdate> updates(active.size());
    runtime::parallel_for_each(&pool, active.size(), [&](std::size_t k) {
      updates[k] = clients[active[k]]->train_round(
          server.parameters(), config_.epochs,
          core::RoundSpec{round, jobs_per_round, server_deadline});
    });

    // Barrier: aggregation and round accounting are serial again.
    bool all_met = true;
    for (const LocalUpdate& update : updates) {
      all_met = all_met && update.pace_trace.deadline_met();
      stats.energy += update.pace_trace.energy() + update.pace_trace.mbo_energy;
    }
    policy->record_outcome(all_met);
    stats.accepted = server.aggregate(updates);

    eval_model.set_flat_parameters(server.parameters());
    const Evaluation eval =
        evaluate(eval_model, test, config_.minibatch_size);
    stats.global_loss = eval.loss;
    stats.global_accuracy = eval.accuracy;
    record_round_telemetry(stats, dropped, updates);
    result.rounds.push_back(stats);
  }
  return result;
}

void FederatedSimulation::record_round_telemetry(
    const FlRoundStats& stats, std::size_t dropouts,
    const std::vector<LocalUpdate>& updates) const {
  // Serial (round-loop thread) and purely observational: every value comes
  // from the already-computed round stats and SimClock-based traces, so a
  // telemetry-enabled run is bit-identical to a disabled one.
  telemetry::Registry* reg = telemetry::global_registry();
  if (reg == nullptr) {
    return;
  }
  reg->counter("fl.rounds").add(1);
  reg->counter("fl.dropouts").add(dropouts);
  reg->counter("fl.deadline_misses").add(stats.participants - stats.accepted);
  reg->histogram("fl.round_energy_j").observe(stats.energy.value());
  Seconds min_slack{0.0};
  bool first = true;
  for (const LocalUpdate& update : updates) {
    const Seconds slack = update.pace_trace.slack();
    min_slack = first ? slack : std::min(min_slack, slack);
    first = false;
    // min_slack_s in the event below stays signed (negative = miss flag);
    // the histogram takes the clamped value so misses don't read as
    // headroom in percentile summaries.
    reg->histogram("fl.round_slack_s")
        .observe(update.pace_trace.safe_slack().value());
    // Phase occupancy across the fleet (paper Table 3's per-phase view).
    const char* phase_counter = "fl.client_rounds_phase3";
    if (update.pace_trace.phase == core::Phase::kSafeRandomExploration) {
      phase_counter = "fl.client_rounds_phase1";
    } else if (update.pace_trace.phase == core::Phase::kParetoConstruction) {
      phase_counter = "fl.client_rounds_phase2";
    }
    reg->counter(phase_counter).add(1);
  }
  if (telemetry::RunRecorder* rec = telemetry::global_recorder()) {
    telemetry::JsonValue fields = telemetry::JsonValue::object();
    fields.set("round", stats.round)
        .set("deadline_s", stats.deadline.value())
        .set("energy_j", stats.energy.value())
        .set("participants", stats.participants)
        .set("accepted", stats.accepted)
        .set("dropouts", dropouts)
        .set("min_slack_s", updates.empty() ? telemetry::JsonValue()
                                            : min_slack.value())
        .set("loss", stats.global_loss)
        .set("accuracy", stats.global_accuracy);
    rec->emit("fl_round", std::move(fields));
  }
}

}  // namespace bofl::fl
