#include "fleet/cluster.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bofl::fleet {

namespace {

/// RNG domain tags: each cluster derives independent streams for its
/// deadline schedule and its canonical controller from the fleet seed via
/// stream_seed, so adding clusters (or re-sharding clients) never shifts an
/// existing cluster's draws.
constexpr std::uint64_t kDeadlineDomain = 0xF1EE7'DEAD'11E5ULL;
constexpr std::uint64_t kCanonicalDomain = 0xF1EE7'C0DE'C7F1ULL;

}  // namespace

std::uint64_t to_micros(Seconds s) {
  const double v = s.value();
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v * 1e6));
}

std::uint64_t to_microjoules(Joules j) {
  const double v = j.value();
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v * 1e6));
}

ClusterEngine::ClusterEngine(std::size_t index, const ClusterSpec& spec,
                             const FleetConfig& config,
                             ilp::ScheduleCache* cache,
                             const faults::FaultInjector* injector)
    : index_(index),
      model_(spec.model),
      profile_(spec.profile),
      jobs_per_round_(config.jobs_per_round),
      deadline_rng_(stream_seed(config.seed ^ kDeadlineDomain, index)),
      deadline_ratio_(config.deadline_ratio),
      cache_(cache),
      config_(&config) {
  BOFL_REQUIRE(model_ != nullptr, "cluster needs a device model");
  BOFL_REQUIRE(jobs_per_round_ >= 1, "cluster needs at least one job/round");
  BOFL_REQUIRE(deadline_ratio_ >= 1.0, "deadline ratio must be >= 1");
  t_min_ = model_->round_t_min(profile_, jobs_per_round_);
  if (config.controller == core::ControllerKind::kBofl &&
      injector != nullptr && injector->plan().has_device_faults()) {
    // The channel's "client" is the cluster index: the canonical device IS
    // the cluster as far as device-level faults are concerned.  The channel
    // survives workload switches (the silicon keeps its faults; only the
    // controller is replaced).
    channel_ = injector->make_device_channel(static_cast<std::int64_t>(index_));
  }
  init_controller();
}

void ClusterEngine::init_controller() {
  // Generation 0 keeps the original canonical stream; every workload
  // switch derives a fresh, independent substream so the replacement
  // controller's exploration never replays the old one's draws.
  const std::uint64_t base =
      stream_seed(config_->seed ^ kCanonicalDomain, index_);
  controller_ = core::make_controller(
      config_->controller, *model_, profile_, device::NoiseModel{},
      core::BoflOptions{},
      generation_ == 0 ? base : stream_seed(base, generation_), t_min_);
  bofl_ = dynamic_cast<core::BoflController*>(controller_.get());
  applied_policy_ = priors::PriorPolicy::kCold;
  if (bofl_ == nullptr) {
    return;
  }
  bofl_->set_schedule_cache(cache_);
  if (config_->knowledge != nullptr) {
    // After a workload switch this keys on the NEW profile, so a task
    // switch re-admits the prior of the cluster the population just became.
    applied_policy_ = priors::admit_prior(
        *config_->knowledge, priors::ClusterKey::of(*model_, profile_),
        config_->prior_policy, *bofl_);
  }
  if (channel_ != nullptr) {
    bofl_->install_fault_model(channel_.get());
  }
  if (pool_ != nullptr) {
    bofl_->set_parallel_pool(pool_);
  }
}

void ClusterEngine::set_parallel_pool(runtime::ThreadPool* pool) {
  pool_ = pool;
  if (bofl_ != nullptr) {
    bofl_->set_parallel_pool(pool);
  }
}

void ClusterEngine::switch_workload(const device::WorkloadProfile& profile) {
  profile_ = profile;
  t_min_ = model_->round_t_min(profile_, jobs_per_round_);
  ++generation_;
  // The old workload's trajectory is stale the moment the population
  // retrains on the new one: drop it so the very next extend_to() replays
  // the replacement controller's own exploration from entry 0.  Clients
  // keep their participation cursors — a cursor deep into the old
  // trajectory lands on the new generation's entry at the same depth.
  // exploration_entries_ keeps accumulating across generations; the
  // re-exploration cost of a switch is exactly what it measures.
  trajectory_.clear();
  init_controller();
}

void ClusterEngine::extend_to(std::size_t entries, double deadline_factor) {
  while (trajectory_.size() < entries) {
    append_entry(deadline_factor);
  }
}

void ClusterEngine::append_entry(double deadline_factor) {
  const auto k = static_cast<std::int64_t>(trajectory_.size());
  // The paper's §6.1 protocol per trajectory entry: uniform in
  // [T_min, ratio * T_min].  Draws are strictly sequential in k, so lazy
  // extension reproduces the eager schedule; the diurnal factor scales the
  // drawn deadline without touching the draw sequence.
  const Seconds deadline =
      t_min_ * (deadline_rng_.uniform(1.0, deadline_ratio_) * deadline_factor);
  const core::RoundSpec spec{k, jobs_per_round_, deadline};
  RoundEntry entry;
  entry.deadline_us = to_micros(deadline);
  // Pessimistic Eqn. 2 BEFORE the entry runs, mirroring the device
  // scenario harness: the worst combined fault effect any job inside
  // [now, now + deadline) could see, at the clamp-capped x_max.  Reference
  // policies keep no reserve and no margin.
  faults::DeviceFaultChannel::WorstCase worst;
  if (channel_ != nullptr) {
    const double t0 = controller_->sim_time().value();
    worst = channel_->worst_case_in(t0, t0 + deadline.value());
  }
  const device::DvfsConfig capped = device::clamp_config(
      model_->space(), model_->space().max_config(), worst.config_cap);
  const double t_pess =
      model_->latency(profile_, capped).value() * worst.latency_multiplier;
  double reserve = 0.0;
  double margin = 0.0;
  if (bofl_ != nullptr) {
    const core::BoflOptions& options = bofl_->options();
    reserve = options.tau.value() + options.first_job_allowance * t_pess;
    margin = options.deadline_safety_margin;
  }
  entry.feasible = static_cast<double>(spec.num_jobs) * t_pess *
                       (1.0 + margin) <=
                   deadline.value() - reserve;
  const core::RoundTrace trace = controller_->run_round(spec);
  entry.elapsed_us = to_micros(trace.elapsed());
  entry.energy_uj = to_microjoules(trace.energy());
  entry.mbo_energy_uj = to_microjoules(trace.mbo_energy);
  entry.phase = trace.phase;
  if (channel_ != nullptr) {
    // Extension may run on a pool worker; buffer the canonical device's
    // fault episodes (in entry order) instead of emitting inline.  The
    // engine flushes per cluster, in cluster-index order, after the
    // extension fan-out — the same stream order serial extension produced.
    for (faults::FaultEvent& event : channel_->drain_events(spec.index)) {
      pending_fault_events_.push_back(std::move(event));
    }
  }
  if (entry.phase != core::Phase::kExploitation) {
    ++exploration_entries_;
  }
  trajectory_.push_back(entry);
}

void ClusterEngine::flush_fault_events() {
  for (const faults::FaultEvent& event : pending_fault_events_) {
    faults::emit_fault_event(event);
  }
  pending_fault_events_.clear();
}

priors::PublishBatch ClusterEngine::prepare_publish() const {
  if (bofl_ == nullptr) {
    return {};
  }
  return priors::prepare_publish(
      *bofl_, priors::ClusterKey::of(*model_, profile_),
      static_cast<std::int64_t>(trajectory_.size()));
}

}  // namespace bofl::fleet
