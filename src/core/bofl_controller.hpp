// The BoFL pace controller (paper §4): safe random exploration, MBO-driven
// Pareto-front construction, then ILP exploitation — all under the
// deadline-guardian safety rule.
//
// Phase transitions:
//   Phase 1 -> 2 : when every quasi-random starting point has been explored.
//   Phase 2 -> 3 : when >= 3 % of the space is explored and the round's
//                  relative hypervolume improvement drops below 1 % (the
//                  paper's §4.3 stop rule), or when MBO has no unobserved
//                  candidate left to propose.
//
// Safety.  Before exploring an unknown configuration the controller checks
// a conservative form of the paper's Eqn. 2:
//     T_remain - (tau + allowance · T(x_max)) >= W_remain · T(x_max) · m
// where the allowance covers the first job of a possibly-pathological
// configuration (a job cannot be preempted mid-flight) and m is a small
// noise margin on the measured T(x_max).  On a failed check the remaining
// jobs run at x_max (Fig. 7's guardian path).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>

#include "bo/mbo_engine.hpp"
#include "core/mbo_cost.hpp"
#include "core/pace_controller.hpp"
#include "device/observer.hpp"
#include "ilp/schedule_cache.hpp"
#include "ilp/schedule_solver.hpp"
#include "priors/prior_policy.hpp"

namespace bofl::core {

struct BoflOptions {
  /// Reference measurement duration τ (§4.2: e.g. 5 s).
  ///
  /// Safety contract: the deadline guarantee holds as long as the latency
  /// measurement error at this τ stays below deadline_safety_margin.  With
  /// the default sensor model (1 % CV at 5 s, growing as sqrt(5/τ)), τ of
  /// 2.5 s or more keeps the error under the default 3 % margin; τ of 1 s
  /// pushes the CV to ~2.2 % and occasional sub-0.1 s overshoots become
  /// possible — exactly the paper's rationale for not measuring too
  /// briefly (see the A2 ablation bench).
  Seconds tau{5.0};
  /// Guardian allowance for the first job of an unknown configuration,
  /// in multiples of T(x_max).
  double first_job_allowance = 12.0;
  /// Noise margin applied to measured latencies in guardian and ILP
  /// feasibility arithmetic.
  double deadline_safety_margin = 0.03;
  /// MBO engine options; mbo.max_batch_size is the batch cap K (§4.3).
  bo::MboOptions mbo{};
  MboCostModel mbo_cost{};
  /// Branch-and-bound options forwarded to every exploitation solve.  The
  /// ilp.disable_cache escape hatch makes an attached ScheduleCache (see
  /// set_schedule_cache) pass every solve through uncached — used by the
  /// cache-on/off bit-identity tests.
  ilp::IlpOptions ilp{};
};

class BoflController final : public PaceController {
 public:
  BoflController(const device::DeviceModel& model,
                 device::WorkloadProfile profile, device::NoiseModel noise,
                 BoflOptions options, std::uint64_t seed);

  RoundTrace run_round(const RoundSpec& spec) override;
  [[nodiscard]] std::string_view name() const override { return "BoFL"; }
  void install_fault_model(device::JobFaultModel* faults) override {
    observer_.set_fault_model(faults);
  }
  [[nodiscard]] Seconds sim_time() const override { return clock_.now(); }

  [[nodiscard]] Phase phase() const { return phase_; }
  /// The options this controller runs with (after any factory tuning).
  [[nodiscard]] const BoflOptions& options() const { return options_; }
  [[nodiscard]] const bo::MboEngine& engine() const { return engine_; }
  /// Guardian drift inflation: 1 when the latest x_max reading matches its
  /// history, larger (up to a cap of 3) while a regression detected at
  /// any configuration is still unresolved.
  [[nodiscard]] double drift_factor() const { return drift_factor_; }
  /// Latest believed per-job latency at x_max (unset before the first run).
  [[nodiscard]] std::optional<Seconds> t_x_max() const { return t_x_max_; }

  /// Score MBO candidates on `pool` (non-owning; nullptr = serial).
  /// Deterministic for any pool size — see bo::MboEngine::set_parallel_pool.
  void set_parallel_pool(runtime::ThreadPool* pool) {
    engine_.set_parallel_pool(pool);
  }

  /// Route exploitation solves through `cache` (non-owning; nullptr =
  /// solve directly, the default).  fl::Simulation shares one cache across
  /// a fleet so cohorts with identical round problems solve each once.
  /// Bit-identical to uncached solving — see ScheduleCache.
  void set_schedule_cache(ilp::ScheduleCache* cache) {
    schedule_cache_ = cache;
  }

  /// Measured per-job (energy, latency) profile of every explored
  /// configuration (job-weighted averages of the noisy readings).
  [[nodiscard]] std::vector<ilp::ConfigProfile> observed_profiles() const;

  /// Flat ids of the observed configurations that are Pareto-optimal among
  /// the observations (BoFL's constructed front, Fig. 11).
  [[nodiscard]] std::vector<std::size_t> pareto_flat_ids() const;

  /// One persisted per-configuration measurement aggregate (the knowledge
  /// store's JSON holds these, so a controller can resume after a device
  /// restart: see priors/knowledge_store.hpp and bofl_sim --save-state).
  struct SavedObservation {
    std::size_t config_flat = 0;
    double jobs = 0.0;
    double mean_energy = 0.0;   ///< J per job
    double mean_latency = 0.0;  ///< s per job
  };

  /// Export every configuration's measurement aggregate.
  [[nodiscard]] std::vector<SavedObservation> export_state() const;

  /// Seed a *fresh* controller (no rounds run yet) with previously saved
  /// aggregates.  If x_max is among them the exploration phases are
  /// resumed where they left off: straight to exploitation when the saved
  /// coverage already satisfies the stopping rule's exploration floor,
  /// otherwise to Pareto construction.  Throws if any round already ran.
  void import_state(const std::vector<SavedObservation>& saved);

  // --- Cluster-prior warm start (the src/priors knowledge plane). ---------

  /// Knowledge distilled from converged controllers of the same
  /// (device model × workload profile) cluster: believed per-config
  /// profiles, a short on-unit verification plan, and GP hyperparameter
  /// optima to warm the surrogate's fits.
  struct PriorSeed {
    std::vector<SavedObservation> observations;
    /// Flat ids the verification pass re-measures on this unit (x_max is
    /// always prepended; these are the cluster's Pareto representatives).
    std::vector<std::size_t> verify_flat_ids;
    std::optional<gp::HyperoptResult> warm_fit1;
    std::optional<gp::HyperoptResult> warm_fit2;
  };

  /// How the prior seeding resolved on this unit.
  enum class PriorState {
    kNone,       ///< cold start, no prior applied
    kVerifying,  ///< prior adopted provisionally; verification pass running
    kVerified,   ///< verification confirmed the prior on this unit
    kAdopted,    ///< kTrust: imported without on-unit verification
    kDemoted,    ///< prior mispredicted; controller fell back to cold start
  };

  /// Seed a *fresh* controller from a cluster prior under `policy`.
  /// kCold (or an empty seed) is a guaranteed no-op: the controller stays
  /// bit-identical to one never offered a prior.  kVerify overlays the
  /// believed profiles and collapses phase 1 to x_max plus the seed's
  /// verification ids; the Eqn. 2 guardian stays authoritative — a reading
  /// off by more than the drift demotion ratio (1.25) from the believed
  /// profile arms the drift guard immediately and demotes back to cold
  /// start at the round boundary.  kTrust imports the observations as if
  /// locally measured.
  void apply_prior(const PriorSeed& seed, priors::PriorPolicy policy);

  [[nodiscard]] PriorState prior_state() const { return prior_state_; }

 private:
  struct Aggregate {
    double jobs = 0.0;
    double latency_weighted = 0.0;  ///< sum of measured per-job latency * jobs
    double energy_weighted = 0.0;   ///< sum of measured per-job energy * jobs

    [[nodiscard]] double mean_latency() const {
      return latency_weighted / jobs;
    }
    [[nodiscard]] double mean_energy() const { return energy_weighted / jobs; }
  };

  struct RoundState {
    RoundTrace trace;
    std::int64_t remaining = 0;
  };

  /// Run `jobs` jobs under `config`, appending a ConfigRun to the trace.
  /// Returns the measurement.
  device::Measurement run_config(RoundState& state,
                                 const device::DvfsConfig& config,
                                 std::int64_t jobs, bool exploratory);
  /// Conservative Eqn. 2 check for spending `budget` on exploration now.
  [[nodiscard]] bool guardian_allows(const RoundState& state,
                                     Seconds budget) const;
  /// Measure one candidate for >= τ seconds (Fig. 7's inner loop).
  void explore_candidate(RoundState& state, std::size_t flat);
  /// Finish the round's remaining jobs with the best observed schedule.
  void exploit_remaining(RoundState& state);
  /// Dominance-pruned observed_profiles(), recomputed only when a
  /// measurement has changed the aggregate table since the last call (the
  /// O(k^2) prune used to run on every ILP re-solve; now it runs once per
  /// profile-table version).
  [[nodiscard]] const std::vector<ilp::ConfigProfile>& exploitation_profiles();
  /// Run the MBO update between rounds (phase 2), charging its cost.
  void mbo_update(RoundState& state);
  void finish_round_bookkeeping(const RoundSpec& spec);
  /// Structural fallback after a prior misprediction: drop the overlay,
  /// rebuild the surrogate from this unit's own measurements and restart
  /// the cold phase-1 plan (minus configs already measured locally).
  void demote_prior_to_cold();

  const device::DeviceModel& model_;
  device::WorkloadProfile profile_;
  BoflOptions options_;
  device::PerformanceObserver observer_;
  device::SimClock clock_;
  bo::MboEngine engine_;
  Phase phase_ = Phase::kSafeRandomExploration;
  std::deque<std::size_t> pending_;
  std::size_t x_max_flat_;
  std::optional<Seconds> t_x_max_;  ///< measured per-job latency at x_max
  double drift_factor_ = 1.0;       ///< guardian inflation while drifted
  std::unordered_map<std::size_t, Aggregate> aggregates_;
  /// Bumped on every aggregate mutation; invalidates pruned_profiles_.
  std::uint64_t profiles_version_ = 0;
  std::uint64_t pruned_version_ = std::numeric_limits<std::uint64_t>::max();
  std::vector<ilp::ConfigProfile> pruned_profiles_;
  ilp::ScheduleCache* schedule_cache_ = nullptr;  ///< non-owning, optional
  std::vector<double> phase1_deadlines_;
  double t_avg_seconds_ = 0.0;
  double hv_prev_ = 0.0;
  std::size_t pareto_rounds_done_ = 0;
  /// Construction seed, kept so demote_prior_to_cold can rebuild the MBO
  /// engine on the exact stream a cold start would have used.
  std::uint64_t seed_ = 0;
  /// Believed per-config profiles borrowed from the cluster prior, keyed by
  /// flat id (ordered so merged profile listings stay deterministic).  An
  /// entry is shadowed as soon as this unit measures the config itself and
  /// cleared wholesale on demotion.
  std::map<std::size_t, Aggregate> prior_overlay_;
  /// Engine observations [0, prior_engine_obs_) came from the prior; the
  /// demotion path keeps only the suffix this unit measured itself.
  std::size_t prior_engine_obs_ = 0;
  /// Set mid-round by the misprediction check; the structural demotion runs
  /// at the next round boundary (the plan cannot be rebuilt mid-iteration).
  bool prior_demote_pending_ = false;
  PriorState prior_state_ = PriorState::kNone;
};

/// Weighted sum w such that w / jobs == mean bit-exactly.  mean * jobs is
/// within an ulp or two of such a w (every saved mean was itself produced
/// by a division by jobs), but the product alone can land on a neighbour
/// whose quotient rounds elsewhere — which would make
/// save -> load -> import -> save drift by one ulp per generation instead
/// of being byte-stable.  Shared by BoflController::import_state and the
/// priors KnowledgeStore merge so cross-generation round trips stay exact.
[[nodiscard]] double quotient_exact_weighted(double mean, double jobs);

}  // namespace bofl::core
