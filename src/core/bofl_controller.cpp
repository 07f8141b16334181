#include "core/bofl_controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/quasirandom.hpp"
#include "common/stats.hpp"
#include "pareto/pareto.hpp"
#include "telemetry/run_recorder.hpp"

namespace bofl::core {

namespace {

/// Fraction of the space sampled as phase-1 starting points (§4.2: ~1 %).
constexpr double kInitialSampleFraction = 0.01;
/// Phase-2 stop: explored share of the space must reach this first (~3 %).
constexpr double kMinExploredFraction = 0.03;
/// Phase-2 stop: relative per-round hypervolume improvement below this
/// (§4.3: 1 %).
constexpr double kHviStopThreshold = 0.01;
/// Run at least this many Pareto-construction rounds before stopping.
constexpr std::size_t kMinParetoRounds = 2;
/// Drift demotion: a fresh per-job latency reading exceeding the config's
/// aggregate mean by this ratio means the environment changed (thermal
/// storm, co-runner, governor clamp) — the stale optimistic history is
/// discarded and the guardian re-armed.  Plain measurement noise (~1 %
/// CV) never crosses this; only genuine regressions (or injected latency
/// spikes) do.
constexpr double kDriftDemoteRatio = 1.25;
/// Cap on the guardian's drift inflation factor.
constexpr double kDriftGuardCap = 3.0;

/// Quasi-random starting points over the DVFS lattice (§4.2): Sobol points
/// in the unit cube snapped to grid steps, deduplicated, x_max excluded (it
/// is always measured first, separately).
std::deque<std::size_t> sample_starting_points(
    const device::DvfsSpace& space) {
  const auto target = static_cast<std::size_t>(std::max(
      3.0,
      std::ceil(kInitialSampleFraction * static_cast<double>(space.size()))));
  const std::vector<std::size_t> sizes = {space.cpu_table().size(),
                                          space.gpu_table().size(),
                                          space.mem_table().size()};
  SobolSequence seq(3);
  std::deque<std::size_t> points;
  std::vector<bool> seen(space.size(), false);
  const std::size_t x_max_flat = space.to_flat(space.max_config());
  seen[x_max_flat] = true;
  // Collisions on the coarse lattice are common; cap the draw budget.
  const std::size_t max_draws = 50 * target + 256;
  for (std::size_t draw = 0; draw < max_draws && points.size() < target;
       ++draw) {
    const std::vector<std::size_t> idx = to_grid_indices(seq.next(), sizes);
    const std::size_t flat = space.to_flat({idx[0], idx[1], idx[2]});
    if (!seen[flat]) {
      seen[flat] = true;
      points.push_back(flat);
    }
  }
  BOFL_ASSERT(!points.empty(), "no starting points sampled");
  return points;
}

/// Whether the observed share of the candidate set has reached the
/// phase-2 stop rule's exploration floor.
bool explored_enough(const bo::MboEngine& engine) {
  return static_cast<double>(engine.num_observed_candidates()) >=
         kMinExploredFraction * static_cast<double>(engine.num_candidates());
}

}  // namespace

double quotient_exact_weighted(double mean, double jobs) {
  double w = mean * jobs;
  for (int step = 0; step < 4 && w / jobs != mean; ++step) {
    w = std::nextafter(w, w / jobs < mean
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
  }
  return w;
}

BoflController::BoflController(const device::DeviceModel& model,
                               device::WorkloadProfile profile,
                               device::NoiseModel noise, BoflOptions options,
                               std::uint64_t seed)
    : model_(model),
      profile_(std::move(profile)),
      options_(options),
      observer_(model_, noise, seed),
      engine_(model_.space().all_normalized(), options.mbo,
              seed ^ 0x9E3779B97F4A7C15ULL),
      pending_(sample_starting_points(model_.space())),
      x_max_flat_(model_.space().to_flat(model_.space().max_config())) {
  BOFL_REQUIRE(options_.tau.value() > 0.0, "tau must be positive");
  // x_max is the very first configuration ever measured (§4.2).
  pending_.push_front(x_max_flat_);
  seed_ = seed;
}

device::Measurement BoflController::run_config(RoundState& state,
                                               const device::DvfsConfig& config,
                                               std::int64_t jobs,
                                               bool exploratory) {
  BOFL_ASSERT(jobs > 0 && jobs <= state.remaining,
              "run_config job accounting error");
  const device::Measurement m =
      observer_.run_jobs(profile_, config, jobs, clock_);
  state.trace.runs.push_back(
      {config, jobs, m.true_duration, m.true_energy, exploratory});
  state.remaining -= jobs;
  // Every run — exploratory or not — refines the per-config aggregate.
  // Long exploitation runs are the most accurate readings the controller
  // ever gets, so the schedule self-corrects against measurement noise.
  const std::size_t flat = model_.space().to_flat(config);
  Aggregate& agg = aggregates_[flat];
  const auto jobs_d = static_cast<double>(jobs);
  double fresh_latency = m.measured_latency.value();
  if (agg.jobs == 0.0 && !prior_overlay_.empty()) {
    // First on-unit measurement of a config the cluster prior claims to
    // know.  A reading outside the drift band in either direction means the
    // prior does not describe this unit (degraded thermals, unit-to-unit
    // variation): arm the guardian for the optimistic case — the rest of
    // this round already runs under the inflated rescue arithmetic — and
    // schedule the structural fallback to cold start for the round boundary.
    const auto it = prior_overlay_.find(flat);
    if (it != prior_overlay_.end()) {
      const double believed = it->second.mean_latency();
      const bool optimistic_prior =
          fresh_latency > believed * kDriftDemoteRatio;
      const bool pessimistic_prior =
          fresh_latency * kDriftDemoteRatio < believed;
      if (optimistic_prior) {
        drift_factor_ =
            std::min(kDriftGuardCap,
                     std::max(drift_factor_, fresh_latency / believed));
      }
      if (optimistic_prior || pessimistic_prior) {
        prior_demote_pending_ = true;
        if (telemetry::Registry* reg = telemetry::global_registry()) {
          reg->counter("bofl.prior_mispredictions").add(1);
        }
      }
    }
  }
  if (agg.jobs > 0.0) {
    const double prior = agg.mean_latency();
    if (fresh_latency > prior * kDriftDemoteRatio) {
      // Regression: the configuration is genuinely slower than its history
      // claims (throttling storm, co-runner, governor clamp).  A stale
      // optimistic aggregate is exactly what rides the ILP schedule into a
      // deadline miss, so demote it — drop the history, let this reading
      // define the config — and re-arm the guardian with headroom for the
      // drift still to come.
      agg = Aggregate{};
      drift_factor_ = std::min(kDriftGuardCap,
                               std::max(drift_factor_, fresh_latency / prior));
      if (telemetry::Registry* reg = telemetry::global_registry()) {
        reg->counter("bofl.aggregate_demotions").add(1);
      }
    } else if (fresh_latency < prior / kDriftDemoteRatio) {
      // Suspiciously *fast* reading (flaky sensor garbage, or a large
      // genuine speedup like a storm ending).  Optimism is the dangerous
      // direction — believing it inflates the guardian's perceived budget
      // and can compound across folds into a sub-truth T(x_max) — so
      // winsorize the fold AND re-arm the guardian by the same factor the
      // reading is off.  A genuine speedup converges in a few bounded
      // folds, after which a consistent x_max reading stands the guardian
      // down again; garbage stays fenced off the whole time.
      drift_factor_ = std::min(kDriftGuardCap,
                               std::max(drift_factor_, prior / fresh_latency));
      if (telemetry::Registry* reg = telemetry::global_registry()) {
        reg->counter("bofl.suspicious_fast_readings").add(1);
      }
      fresh_latency = prior / kDriftDemoteRatio;
    } else {
      if (flat == x_max_flat_ && drift_factor_ > 1.0) {
        // x_max reads consistent with its (possibly demoted) aggregate
        // again: T(x_max) is trustworthy, stand the guardian down.
        drift_factor_ = 1.0;
      }
    }
  }
  agg.jobs += jobs_d;
  agg.latency_weighted += fresh_latency * jobs_d;
  agg.energy_weighted += m.measured_energy.value() * jobs_d;
  ++profiles_version_;
  if (flat == x_max_flat_) {
    t_x_max_ = Seconds{agg.mean_latency()};
  }
  return m;
}

bool BoflController::guardian_allows(const RoundState& state,
                                     Seconds budget) const {
  BOFL_ASSERT(t_x_max_.has_value(), "guardian check before T(x_max) is known");
  const double time_left =
      state.trace.deadline.value() - state.trace.elapsed().value();
  const double rescue = static_cast<double>(state.remaining) *
                        t_x_max_->value() * drift_factor_ *
                        (1.0 + options_.deadline_safety_margin);
  return time_left - budget.value() >= rescue;
}

void BoflController::explore_candidate(RoundState& state, std::size_t flat) {
  const device::DvfsConfig config = model_.space().from_flat(flat);
  // First job: establishes the latency estimate for this configuration.
  const device::Measurement first = run_config(state, config, 1, true);
  double measured_time = first.true_duration.value();
  double jobs = 1.0;
  double latency_weighted = first.measured_latency.value();
  double energy_weighted = first.measured_energy.value();

  // Keep the configuration busy until it has been measured for >= τ, as
  // long as jobs remain and the guardian stays satisfied.
  if (measured_time < options_.tau.value() && state.remaining > 0) {
    const double t_hat = std::max(first.measured_latency.value(), 1e-9);
    auto more = static_cast<std::int64_t>(
        std::ceil((options_.tau.value() - measured_time) / t_hat));
    more = std::min(more, state.remaining);
    if (t_x_max_) {
      // Largest batch that keeps the x_max rescue plan viable.
      const double time_left =
          state.trace.deadline.value() - state.trace.elapsed().value();
      const double rescue_per_job = t_x_max_->value() * drift_factor_ *
                                    (1.0 + options_.deadline_safety_margin);
      // time_left - more*t_hat >= (remaining - more) * rescue_per_job
      const double numerator =
          time_left -
          static_cast<double>(state.remaining) * rescue_per_job;
      const double denominator = t_hat - rescue_per_job;
      if (denominator > 0.0) {
        more = std::min(
            more, static_cast<std::int64_t>(
                      std::floor(numerator / denominator)));
      }
      more = std::max<std::int64_t>(more, 0);
    }
    if (more > 0) {
      const device::Measurement rest = run_config(state, config, more, true);
      measured_time += rest.true_duration.value();
      jobs += static_cast<double>(more);
      latency_weighted +=
          rest.measured_latency.value() * static_cast<double>(more);
      energy_weighted +=
          rest.measured_energy.value() * static_cast<double>(more);
    }
  }

  engine_.add_observation(
      {flat, energy_weighted / jobs, latency_weighted / jobs});
  state.trace.explored_flat_ids.push_back(flat);
}

void BoflController::exploit_remaining(RoundState& state) {
  const device::DvfsConfig x_max = model_.space().max_config();
  // Closed-loop schedule execution: re-solve the ILP before every block
  // with the latest measurements and the *actual* remaining time, and run
  // the slowest block first so faster configurations remain available to
  // absorb any measurement optimism (winner's-curse latencies would
  // otherwise accumulate into a deadline miss).
  while (state.remaining > 0) {
    // Disturbances (latency spikes, thermal throttling) can blow the budget
    // mid-round; clamp at zero so the solver reports infeasible and the
    // x_max damage-control path below finishes the round as fast as
    // possible instead of tripping a precondition.
    const double time_left =
        std::max(0.0, state.trace.deadline.value() -
                          state.trace.elapsed().value());
    const std::vector<ilp::ConfigProfile>& profiles = exploitation_profiles();
    ilp::Schedule schedule;
    if (!profiles.empty()) {
      // While the guardian is armed (drift_factor_ > 1) the aggregates the
      // solver runs on are suspect by the same factor, so shrink its time
      // budget accordingly; infeasible mixes then fall through to x_max.
      const double budget =
          time_left /
          ((1.0 + options_.deadline_safety_margin) * drift_factor_);
      schedule = schedule_cache_ != nullptr
                     ? schedule_cache_->solve_pruned(profiles, state.remaining,
                                                     budget, options_.ilp)
                     : ilp::solve_round_schedule_pruned(
                           profiles, state.remaining, budget, options_.ilp);
    }
    if (!schedule.feasible) {
      // No observations yet or no feasible mix: play safe at x_max.
      run_config(state, x_max, state.remaining, false);
      return;
    }
    std::size_t slowest = 0;
    for (std::size_t a = 1; a < schedule.assignments.size(); ++a) {
      if (profiles[schedule.assignments[a].first].latency_per_job >
          profiles[schedule.assignments[slowest].first].latency_per_job) {
        slowest = a;
      }
    }
    const auto [profile_index, jobs] = schedule.assignments[slowest];
    // Cap each block at half the remaining jobs: the block's own (long,
    // accurate) measurement then dominates the config's aggregate before
    // the next re-solve, so a stale optimistic latency estimate can never
    // ride a full block into a deadline miss.
    const std::int64_t block =
        std::min(jobs, std::max<std::int64_t>(1, state.remaining / 2));
    run_config(state, model_.space().from_flat(profiles[profile_index].config_id),
               block, false);
  }
}

void BoflController::mbo_update(RoundState& state) {
  const double t_avg = t_avg_seconds_ > 0.0 ? t_avg_seconds_
                                            : options_.tau.value();
  auto batch = static_cast<std::size_t>(std::max<std::int64_t>(
      1, std::llround(t_avg / options_.tau.value())));
  batch = std::min(batch, options_.mbo.max_batch_size);

  const std::vector<std::size_t> suggestions = engine_.propose_batch(batch);
  pending_.assign(suggestions.begin(), suggestions.end());

  state.trace.mbo_latency =
      options_.mbo_cost.latency(engine_.num_observations(), batch);
  state.trace.mbo_energy =
      options_.mbo_cost.energy(engine_.num_observations(), batch);
  // The update runs in the configuration/reporting window between rounds
  // (§4.3), so it consumes wall time but no deadline budget.
  clock_.advance(state.trace.mbo_latency);
}

RoundTrace BoflController::run_round(const RoundSpec& spec) {
  BOFL_REQUIRE(spec.num_jobs > 0, "round needs at least one job");
  RoundState state;
  state.trace.index = spec.index;
  state.trace.deadline = spec.deadline;
  state.trace.phase = phase_;
  state.remaining = spec.num_jobs;

  if (phase_ == Phase::kExploitation) {
    exploit_remaining(state);
    finish_round_bookkeeping(spec);
    return state.trace;
  }

  if (phase_ == Phase::kParetoConstruction) {
    mbo_update(state);
  }

  while (state.remaining > 0) {
    if (pending_.empty()) {
      // Candidates exhausted: spend the rest of the round on the best
      // observed configurations (§4.2 "last round exploitation").
      exploit_remaining(state);
      break;
    }
    const std::size_t next = pending_.front();
    if (!t_x_max_) {
      // The very first measurement must be x_max (no guardian yet).
      BOFL_ASSERT(next == x_max_flat_, "x_max must be explored first");
      pending_.pop_front();
      explore_candidate(state, next);
      continue;
    }
    // Drift inflation applies to the allowance too: an unknown config's
    // first job slows down with the environment like everything else.
    const Seconds budget{options_.tau.value() + options_.first_job_allowance *
                                                    t_x_max_->value() *
                                                    drift_factor_};
    if (!guardian_allows(state, budget)) {
      // Deadline guardian trip: finish the round at x_max (Fig. 7).
      if (telemetry::Registry* reg = telemetry::global_registry()) {
        reg->counter("bofl.guardian_trips").add(1);
      }
      run_config(state, model_.space().max_config(), state.remaining, false);
      break;
    }
    pending_.pop_front();
    explore_candidate(state, next);
  }

  finish_round_bookkeeping(spec);
  return state.trace;
}

void BoflController::finish_round_bookkeeping(const RoundSpec& spec) {
  const Phase entered = phase_;
  if (prior_demote_pending_) {
    prior_demote_pending_ = false;
    demote_prior_to_cold();
  }
  if (phase_ == Phase::kSafeRandomExploration) {
    phase1_deadlines_.push_back(spec.deadline.value());
    if (pending_.empty()) {
      phase_ = Phase::kParetoConstruction;
      // Freeze the reference point at the phase-1 component-wise worst
      // observation (§4.3) and start hypervolume tracking.
      engine_.set_reference(engine_.reference());
      t_avg_seconds_ = mean_of(phase1_deadlines_);
      hv_prev_ = engine_.observed_hypervolume();
      if (prior_state_ == PriorState::kVerifying) {
        // The verification pass finished without tripping the misprediction
        // check: the cluster prior holds on this unit.  With the prior's
        // coverage already past the stopping rule's exploration floor the
        // Pareto-construction phase has nothing left to add — jump straight
        // to exploitation (the warm-start collapse the knowledge plane
        // exists for).
        prior_state_ = PriorState::kVerified;
        if (telemetry::Registry* reg = telemetry::global_registry()) {
          reg->counter("bofl.priors_verified").add(1);
        }
        if (explored_enough(engine_)) {
          phase_ = Phase::kExploitation;
        }
      }
    }
  } else if (phase_ == Phase::kParetoConstruction) {
    ++pareto_rounds_done_;
    const double hv = engine_.observed_hypervolume();
    const double relative_improvement =
        (hv - hv_prev_) / std::max(hv_prev_, 1e-12);
    hv_prev_ = hv;
    const bool converged = relative_improvement < kHviStopThreshold;
    const bool exhausted =
        engine_.num_observed_candidates() == engine_.num_candidates();
    if ((pareto_rounds_done_ >= kMinParetoRounds && explored_enough(engine_) &&
         converged) ||
        exhausted) {
      phase_ = Phase::kExploitation;
    }
    // Hypervolume trajectory (§4.3's stopping signal), recorded from the
    // value the stop rule itself just computed.
    if (telemetry::Registry* reg = telemetry::global_registry()) {
      reg->gauge("mbo.hypervolume").set(hv);
      if (telemetry::RunRecorder* rec = telemetry::global_recorder()) {
        telemetry::JsonValue fields = telemetry::JsonValue::object();
        fields.set("round", spec.index)
            .set("hypervolume", hv)
            .set("relative_improvement", relative_improvement)
            .set("observed_candidates", engine_.num_observed_candidates())
            .set("observations", engine_.num_observations());
        rec->emit("pareto_round", std::move(fields));
      }
    }
  }
  if (phase_ != entered) {
    if (telemetry::Registry* reg = telemetry::global_registry()) {
      reg->counter("bofl.phase_transitions").add(1);
      if (telemetry::RunRecorder* rec = telemetry::global_recorder()) {
        telemetry::JsonValue fields = telemetry::JsonValue::object();
        fields.set("round", spec.index)
            .set("from", static_cast<int>(entered))
            .set("to", static_cast<int>(phase_));
        rec->emit("phase_transition", std::move(fields));
      }
    }
  }
}

std::vector<BoflController::SavedObservation> BoflController::export_state()
    const {
  std::vector<SavedObservation> saved;
  saved.reserve(aggregates_.size());
  for (const auto& [flat, agg] : aggregates_) {
    saved.push_back({flat, agg.jobs, agg.mean_energy(), agg.mean_latency()});
  }
  std::sort(saved.begin(), saved.end(),
            [](const SavedObservation& a, const SavedObservation& b) {
              return a.config_flat < b.config_flat;
            });
  return saved;
}

void BoflController::import_state(
    const std::vector<SavedObservation>& saved) {
  BOFL_REQUIRE(aggregates_.empty() && phase_ == Phase::kSafeRandomExploration,
               "import_state requires a fresh controller");
  for (const SavedObservation& obs : saved) {
    BOFL_REQUIRE(obs.config_flat < model_.space().size(),
                 "saved observation out of range");
    BOFL_REQUIRE(obs.jobs > 0.0 && obs.mean_energy > 0.0 &&
                     obs.mean_latency > 0.0,
                 "saved observation must be positive");
    BOFL_REQUIRE(std::isfinite(obs.jobs) && std::isfinite(obs.mean_energy) &&
                     std::isfinite(obs.mean_latency),
                 "saved observation must be finite");
    Aggregate& agg = aggregates_[obs.config_flat];
    agg.jobs = obs.jobs;
    agg.latency_weighted = quotient_exact_weighted(obs.mean_latency, obs.jobs);
    agg.energy_weighted = quotient_exact_weighted(obs.mean_energy, obs.jobs);
    engine_.add_observation(
        {obs.config_flat, obs.mean_energy, obs.mean_latency});
    if (obs.config_flat == x_max_flat_) {
      t_x_max_ = Seconds{obs.mean_latency};
    }
  }
  ++profiles_version_;
  if (!t_x_max_ || engine_.num_observations() < bo::kMinProposeObservations) {
    // Without the guardian anchor, or with too few observations to fit the
    // surrogates from, resume in phase 1: the imported configs count as
    // measured starting points, and the rest of the sampled plan runs.
    std::erase_if(pending_, [&](std::size_t flat) {
      return aggregates_.contains(flat);
    });
    return;
  }
  // The surrogates can be fit: skip phase 1 (the initial uniform sample).
  pending_.clear();
  engine_.set_reference(engine_.reference());
  hv_prev_ = engine_.observed_hypervolume();
  phase_ = explored_enough(engine_) ? Phase::kExploitation
                                    : Phase::kParetoConstruction;
}

void BoflController::apply_prior(const PriorSeed& seed,
                                 priors::PriorPolicy policy) {
  BOFL_REQUIRE(aggregates_.empty() && prior_overlay_.empty() &&
                   phase_ == Phase::kSafeRandomExploration && !t_x_max_,
               "apply_prior requires a fresh controller");
  if (policy == priors::PriorPolicy::kCold || seed.observations.empty() ||
      (policy == priors::PriorPolicy::kVerify &&
       seed.observations.size() < bo::kMinProposeObservations)) {
    // Differential guarantee: a declined seeding leaves the controller
    // bit-identical to one never offered a prior.
    return;
  }
  if (policy == priors::PriorPolicy::kTrust) {
    import_state(seed.observations);
    if (seed.warm_fit1 && seed.warm_fit2) {
      engine_.seed_warm_start(*seed.warm_fit1, *seed.warm_fit2);
    }
    prior_state_ = PriorState::kAdopted;
    if (telemetry::Registry* reg = telemetry::global_registry()) {
      reg->counter("bofl.prior_seeded").add(1);
    }
    return;
  }
  // kVerify: adopt the cluster's knowledge provisionally.  Believed
  // profiles overlay the ILP arithmetic and seed the GP surrogate, but
  // nothing is trusted structurally until x_max plus the cluster's chosen
  // representatives have been re-measured on this unit — t_x_max_ stays
  // unset so the guardian anchors on a local reading, never a borrowed one.
  for (const SavedObservation& obs : seed.observations) {
    BOFL_REQUIRE(obs.config_flat < model_.space().size(),
                 "prior observation out of range");
    BOFL_REQUIRE(obs.jobs > 0.0 && obs.mean_energy > 0.0 &&
                     obs.mean_latency > 0.0,
                 "prior observation must be positive");
    Aggregate overlay;
    overlay.jobs = obs.jobs;
    overlay.latency_weighted =
        quotient_exact_weighted(obs.mean_latency, obs.jobs);
    overlay.energy_weighted =
        quotient_exact_weighted(obs.mean_energy, obs.jobs);
    prior_overlay_.insert_or_assign(obs.config_flat, overlay);
    engine_.add_observation(
        {obs.config_flat, obs.mean_energy, obs.mean_latency});
  }
  prior_engine_obs_ = engine_.num_observations();
  if (seed.warm_fit1 && seed.warm_fit2) {
    engine_.seed_warm_start(*seed.warm_fit1, *seed.warm_fit2);
  }
  // The verification plan replaces the quasi-random phase-1 sample.
  pending_.clear();
  pending_.push_back(x_max_flat_);
  for (const std::size_t flat : seed.verify_flat_ids) {
    if (flat < model_.space().size() &&
        std::find(pending_.begin(), pending_.end(), flat) == pending_.end()) {
      pending_.push_back(flat);
    }
  }
  prior_state_ = PriorState::kVerifying;
  ++profiles_version_;
  if (telemetry::Registry* reg = telemetry::global_registry()) {
    reg->counter("bofl.prior_seeded").add(1);
  }
}

void BoflController::demote_prior_to_cold() {
  // Keep only what this unit measured itself: aggregates_ (local readings
  // are never overlaid) and the engine observations appended after the
  // seed.  The drift guardian stays armed from the misprediction.
  prior_overlay_.clear();
  const std::vector<bo::MboObservation> own(
      engine_.observations().begin() +
          static_cast<std::ptrdiff_t>(prior_engine_obs_),
      engine_.observations().end());
  runtime::ThreadPool* pool = engine_.parallel_pool();
  engine_ = bo::MboEngine(model_.space().all_normalized(), options_.mbo,
                          seed_ ^ 0x9E3779B97F4A7C15ULL);
  engine_.set_parallel_pool(pool);
  for (const bo::MboObservation& obs : own) {
    engine_.add_observation(obs);
  }
  prior_engine_obs_ = 0;
  // Restart the cold phase-1 plan, minus configs already measured locally.
  const std::deque<std::size_t> plan = sample_starting_points(model_.space());
  pending_.clear();
  for (const std::size_t flat : plan) {
    if (aggregates_.find(flat) == aggregates_.end()) {
      pending_.push_back(flat);
    }
  }
  if (!t_x_max_) {
    pending_.push_front(x_max_flat_);
  }
  phase_ = Phase::kSafeRandomExploration;
  phase1_deadlines_.clear();
  t_avg_seconds_ = 0.0;
  hv_prev_ = 0.0;
  pareto_rounds_done_ = 0;
  ++profiles_version_;
  prior_state_ = PriorState::kDemoted;
  if (telemetry::Registry* reg = telemetry::global_registry()) {
    reg->counter("bofl.prior_demotions").add(1);
  }
}

const std::vector<ilp::ConfigProfile>& BoflController::exploitation_profiles() {
  if (pruned_version_ != profiles_version_) {
    pruned_profiles_ =
        ilp::prune_dominated_profiles(observed_profiles()).profiles;
    pruned_version_ = profiles_version_;
    if (telemetry::Registry* reg = telemetry::global_registry()) {
      reg->counter("bofl.profile_prunes").add(1);
    }
  }
  return pruned_profiles_;
}

std::vector<ilp::ConfigProfile> BoflController::observed_profiles() const {
  std::vector<ilp::ConfigProfile> profiles;
  profiles.reserve(aggregates_.size() + prior_overlay_.size());
  for (const auto& [flat, agg] : aggregates_) {
    profiles.push_back({flat, agg.mean_energy(), agg.mean_latency()});
  }
  // Borrowed profiles count until this unit measures the config itself;
  // the overlay map is ordered, so the merged listing is deterministic.
  for (const auto& [flat, agg] : prior_overlay_) {
    if (aggregates_.find(flat) == aggregates_.end()) {
      profiles.push_back({flat, agg.mean_energy(), agg.mean_latency()});
    }
  }
  return profiles;
}

std::vector<std::size_t> BoflController::pareto_flat_ids() const {
  const std::vector<ilp::ConfigProfile> profiles = observed_profiles();
  std::vector<pareto::Point2> points;
  points.reserve(profiles.size());
  for (const ilp::ConfigProfile& p : profiles) {
    points.push_back({p.energy_per_job, p.latency_per_job});
  }
  std::vector<std::size_t> ids;
  for (std::size_t index : pareto::non_dominated_indices(points)) {
    ids.push_back(profiles[index].config_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace bofl::core
