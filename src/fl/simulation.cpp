#include "fl/simulation.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "fleet/event_queue.hpp"
#include "core/bofl_controller.hpp"
#include "faults/fault_injector.hpp"
#include "priors/handshake.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl::fl {

namespace {

/// Hidden layers of the kMlp classifier.
constexpr std::size_t kMlpDepth = 2;
/// Time steps per kLstm sequence.
constexpr std::size_t kSequenceLength = 8;
/// Reporting-deadline mode: per-upload throughput CV of each client's
/// uplink, and the factor inflating the predicted upload time.
constexpr double kUplinkCv = 0.25;
constexpr double kUploadSafetyFactor = 1.25;

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
  if (config_.share_schedule_cache &&
      config_.controller == core::ControllerKind::kBofl) {
    schedule_cache_ = std::make_unique<ilp::ScheduleCache>();
  }
}

FlSimulationResult FederatedSimulation::run() {
  BOFL_REQUIRE(config_.dropout_probability >= 0.0 &&
                   config_.dropout_probability < 1.0,
               "dropout probability must be in [0, 1)");
  BOFL_REQUIRE(config_.straggler_timeout == 0.0 ||
                   config_.straggler_timeout >= 1.0,
               "straggler timeout is a deadline multiple (>= 1), or 0 = off");
  Rng rng(config_.seed);
  Rng dropout_rng(config_.seed ^ 0xD0D0ULL);

  // Build the client pool: per-client non-IID shards, shared architecture.
  const auto factory = [&]() {
    Rng model_rng(config_.seed ^ 0xA11CE5ULL);  // identical init everywhere
    if (config_.model == FleetModel::kLstm) {
      return nn::make_lstm_classifier(config_.feature_dim, config_.hidden,
                                      config_.classes, model_rng);
    }
    return nn::make_mlp_classifier(config_.feature_dim, config_.hidden,
                                   kMlpDepth, config_.classes, model_rng);
  };
  const auto make_shard = [&](std::uint64_t seed, double skew) {
    if (config_.model == FleetModel::kLstm) {
      return nn::make_sequences(config_.shard_examples, kSequenceLength,
                                config_.feature_dim, config_.classes, seed);
    }
    return nn::make_classification(config_.shard_examples, config_.feature_dim,
                                   config_.classes, seed, /*noise=*/0.8, skew);
  };

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
    const Seconds t_min_c =
        model.round_t_min(config_.profile, jobs_per_round);
    client_t_min.push_back(t_min_c);
    std::unique_ptr<core::PaceController> controller = core::make_controller(
        config_.controller, model, config_.profile, device::NoiseModel{},
        config_.bofl_options, config_.seed * 104729 + c, t_min_c);
    if (auto* bofl = dynamic_cast<core::BoflController*>(controller.get())) {
      // Fleet-shared exploitation memo (bit-identical; see config docs).
      bofl->set_schedule_cache(schedule_cache_.get());
      if (config_.knowledge != nullptr) {
        // Knowledge-plane admission: seed this client from its cluster's
        // shared prior (may downgrade or decline — see KnowledgeStore).
        priors::admit_prior(*config_.knowledge,
                            priors::ClusterKey::of(model, config_.profile),
                            config_.prior_policy, *bofl);
      }
    }
    clients.push_back(std::make_unique<Client>(
        c, make_shard(config_.seed * 7919 + c, config_.shard_skew), factory,
        config_.learning_rate, config_.minibatch_size, std::move(controller)));
  }
  // Deadline floor when every client could be selected (used by the static
  // timeout policy, which cannot react per cohort).
  const Seconds t_min = fleet_deadline_floor(client_t_min);

  // Fault injection: one injector per run, one device channel per client
  // (owned here, consulted from that client's task only — see
  // faults::DeviceFaultChannel for the determinism contract).
  std::optional<faults::FaultInjector> injector;
  std::vector<std::unique_ptr<faults::DeviceFaultChannel>> channels;
  if (config_.fault_plan.has_value()) {
    injector.emplace(*config_.fault_plan, config_.seed);
    channels.reserve(config_.num_clients);
    for (std::size_t c = 0; c < config_.num_clients; ++c) {
      channels.push_back(
          injector->make_device_channel(static_cast<std::int64_t>(c)));
      clients[c]->install_fault_model(channels.back().get());
    }
    if (telemetry::RunRecorder* rec = telemetry::global_recorder()) {
      telemetry::JsonValue fields = telemetry::JsonValue::object();
      fields.set("name", injector->plan().name)
          .set("faults", injector->plan().faults.size())
          .set("plan_seed", injector->plan().seed);
      rec->emit("fault_plan", std::move(fields));
    }
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
    case DeadlinePolicyKind::kStaticTimeout:
      policy = std::make_unique<StaticTimeoutPolicy>(
          t_min * config_.static_timeout_slack);
      break;
    case DeadlinePolicyKind::kAdaptiveSlack:
      policy = std::make_unique<AdaptiveSlackPolicy>();
      break;
  }

  // Reporting-deadline plumbing: per-client uplink + bandwidth estimator.
  const double model_bits =
      static_cast<double>(eval_model.num_parameters()) * 32.0;
  const double nominal_upload_seconds =
      config_.reporting_deadline_mode
          ? model_bits / (config_.uplink_mbps * 1e6)
          : 0.0;
  std::vector<NetworkModel> uplinks;
  std::vector<ReportingDeadlineAdapter> adapters;
  if (config_.reporting_deadline_mode) {
    for (std::size_t c = 0; c < config_.num_clients; ++c) {
      uplinks.emplace_back(config_.uplink_mbps, kUplinkCv,
                           config_.seed * 31 + c);
      adapters.emplace_back(
          model_bits, BandwidthEstimator(config_.uplink_mbps),
          kUploadSafetyFactor);
    }
  }

  // Worker pool for the per-round client fan-out.  Clients are independent
  // within a round (own shard, model replica, controller, uplink, adapter),
  // so each one is a task; everything cross-client stays on this thread.
  runtime::ThreadPool pool(config_.threads);

  FlSimulationResult result;
  result.rounds.reserve(static_cast<std::size_t>(config_.rounds));
  for (std::int64_t round = 0; round < config_.rounds; ++round) {
    const std::vector<std::size_t> participants = server.select_participants(
        config_.num_clients, config_.clients_per_round, rng);
    // The deadline must be feasible for the slowest selected participant;
    // in reporting mode it must also cover the upload.
    const Seconds cohort_floor = cohort_deadline_floor(
        client_t_min, participants,
        Seconds{kUploadSafetyFactor * nominal_upload_seconds});
    Seconds server_deadline = policy->assign(round, cohort_floor);
    if (injector) {
      // Deadline jitter: the server's announcement reaches clients skewed.
      // Applied after the policy so the jitter can push below the cohort
      // floor — that is the fault being modeled.
      const double jitter = injector->deadline_jitter(round);
      if (jitter != 1.0) {
        server_deadline = server_deadline * jitter;
        faults::emit_fault_event({faults::FaultKind::kDeadlineJitter, round,
                                  /*client=*/-1, /*time_s=*/0.0, jitter});
      }
    }

    FlRoundStats stats;
    stats.round = round;
    stats.participants = participants.size();
    stats.deadline = server_deadline;

    // Serial pre-pass: every shared-RNG draw happens here, in participant
    // order, so the dropout stream is independent of the worker count.
    // (Fault-plan dropouts are pure hash draws — order-free by design —
    // but their events are emitted here, serially, for the same reason.)
    std::vector<std::size_t> active;
    std::size_t dropped = 0;
    active.reserve(participants.size());
    for (std::size_t id : participants) {
      if (dropout_rng.bernoulli(config_.dropout_probability)) {
        ++dropped;  // the device vanished before training started
        continue;
      }
      if (injector &&
          injector->client_drops(round, static_cast<std::int64_t>(id))) {
        faults::emit_fault_event({faults::FaultKind::kClientDropout, round,
                                  static_cast<std::int64_t>(id),
                                  /*time_s=*/0.0, /*magnitude=*/1.0});
        ++dropped;
        continue;
      }
      active.push_back(id);
    }
    if (config_.backfill_dropouts && active.size() < participants.size()) {
      // Cohort backfill: draw replacements from the unselected pool so the
      // round keeps its planned parallelism.  Serial draws on the round
      // loop's RNG; replacements are still subject to fault-plan dropouts
      // (the outage does not spare them) but not to the baseline dropout
      // roll, which already ran for this round.
      std::vector<bool> considered(config_.num_clients, false);
      for (std::size_t id : participants) {
        considered[id] = true;
      }
      std::size_t attempts = 4 * config_.num_clients;
      while (active.size() < participants.size() && attempts-- > 0) {
        const std::size_t candidate =
            dropout_rng.uniform_index(config_.num_clients);
        if (considered[candidate]) {
          continue;
        }
        considered[candidate] = true;
        if (injector && injector->client_drops(
                            round, static_cast<std::int64_t>(candidate))) {
          continue;
        }
        active.push_back(candidate);
        ++stats.backfilled;
      }
    }

    // Parallel fan-out: local training (plus the simulated upload, whose
    // RNG is per-client) runs concurrently, one task per active client.
    // Results land in participant-order slots, keeping every downstream
    // reduction bit-identical to the serial loop.
    std::vector<LocalUpdate> updates(active.size());
    runtime::parallel_for_each(&pool, active.size(), [&](std::size_t k) {
      const std::size_t id = active[k];
      core::RoundSpec spec{round, jobs_per_round, server_deadline};
      if (config_.reporting_deadline_mode) {
        // The client infers its training deadline from the reporting one.
        spec.deadline = adapters[id].training_deadline(server_deadline);
      }
      LocalUpdate update = clients[id]->train_round(server.parameters(),
                                                    config_.epochs, spec);
      if (config_.reporting_deadline_mode) {
        update.upload_duration = uplinks[id].transfer_time(model_bits);
        adapters[id].record_upload(update.upload_duration);
      }
      // Straggler fault: the finished report lingers (flaky connectivity,
      // app backgrounded) for (factor - 1) deadlines.  Pure hash draw, so
      // querying it here in a worker is thread- and order-safe; the event
      // is emitted later, serially, from the same draw.
      const double straggle =
          injector ? injector->straggler_factor(
                         round, static_cast<std::int64_t>(id))
                   : 1.0;
      if (straggle > 1.0) {
        update.upload_duration +=
            Seconds{(straggle - 1.0) * server_deadline.value()};
      }
      if (config_.reporting_deadline_mode || straggle > 1.0) {
        update.reported_in_time =
            update.pace_trace.elapsed() + update.upload_duration <=
            server_deadline;
      }
      updates[k] = std::move(update);
    });

    // Barrier: aggregation and round accounting are serial again.  Device
    // fault events queued inside the parallel section drain here, in
    // participant order, so the telemetry stream stays byte-identical for
    // every worker count.
    if (injector) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        const auto id = static_cast<std::int64_t>(active[k]);
        const double straggle = injector->straggler_factor(round, id);
        if (straggle > 1.0) {
          faults::emit_fault_event(
              {faults::FaultKind::kStraggler, round, id,
               updates[k].pace_trace.elapsed().value(), straggle});
        }
        for (const faults::FaultEvent& event :
             channels[active[k]]->drain_events(round)) {
          faults::emit_fault_event(event);
        }
      }
    }
    bool all_met = true;
    // Round close is the fleet engine's linear fold: arrivals strictly past
    // the straggler cutoff count as timed out — the same accounting as the
    // polling loop this replaced (max + counts are order-independent), bit
    // for bit.
    const std::optional<double> straggler_cutoff =
        config_.straggler_timeout > 0.0
            ? std::optional<double>(config_.straggler_timeout *
                                    server_deadline.value())
            : std::nullopt;
    fleet::CompletionQueue<double> arrivals;
    for (std::size_t k = 0; k < updates.size(); ++k) {
      const LocalUpdate& update = updates[k];
      all_met = all_met && update.pace_trace.deadline_met() &&
                update.reported_in_time;
      stats.energy += update.pace_trace.energy() + update.pace_trace.mbo_energy;
      arrivals.push({update.pace_trace.elapsed().value() +
                         update.upload_duration.value(),
                     static_cast<std::uint64_t>(k)});
    }
    const fleet::RoundClose<double> close =
        fleet::close_round(arrivals, straggler_cutoff);
    stats.timed_out += close.timed_out;
    stats.round_wall = Seconds{close.wall};
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

  // Knowledge-plane publish-back, serial and in client-id order so the
  // store's merged content is independent of the worker count.  kCold keeps
  // an attached store read-only (the bit-identity contract).
  if (config_.knowledge != nullptr &&
      config_.prior_policy != priors::PriorPolicy::kCold) {
    for (std::size_t c = 0; c < config_.num_clients; ++c) {
      const auto* bofl =
          dynamic_cast<const core::BoflController*>(&clients[c]->controller());
      if (bofl == nullptr) {
        continue;
      }
      priors::apply_publish(
          *config_.knowledge,
          priors::prepare_publish(
              *bofl,
              priors::ClusterKey::of(*devices_[c % devices_.size()],
                                     config_.profile),
              config_.rounds));
    }
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
  Seconds upload_total{0.0};
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
    if (config_.reporting_deadline_mode) {
      reg->histogram("fl.upload_seconds")
          .observe(update.upload_duration.value());
      upload_total += update.upload_duration;
    }
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
    if (stats.backfilled > 0) {
      fields.set("backfilled", stats.backfilled);
    }
    if (stats.timed_out > 0) {
      fields.set("timed_out", stats.timed_out);
    }
    if (config_.straggler_timeout > 0.0) {
      fields.set("wall_s", stats.round_wall.value());
    }
    if (config_.reporting_deadline_mode && !updates.empty()) {
      fields.set("mean_upload_s",
                 upload_total.value() / static_cast<double>(updates.size()));
    }
    rec->emit("fl_round", std::move(fields));
  }
}

}  // namespace bofl::fl
