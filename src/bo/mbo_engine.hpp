// Multi-objective Bayesian optimization engine (paper §4.3).
//
// Owns the discrete candidate set (the DVFS lattice mapped to the unit
// cube), the observation history, and two independent Gaussian processes —
// one per objective (latency, energy).  Each propose_batch() call:
//   1. re-standardizes the log-transformed targets (positivity-preserving,
//      tames the right tail),
//   2. refits kernel hyperparameters by marginal likelihood,
//   3. greedily selects K candidates by exact 2-D EHVI, fantasizing each
//      pick at its posterior mean (Kriging believer) before the next pick.
// The engine is deliberately ignorant of deadlines and scheduling; the core
// controller feeds it measurements and consumes its suggestions.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bo/ehvi.hpp"
#include "common/rng.hpp"
#include "gp/hyperopt.hpp"
#include "pareto/pareto.hpp"
#include "runtime/thread_pool.hpp"

namespace bofl::bo {

/// How propose_batch picks candidates.
enum class AcquisitionKind {
  kEhvi,              ///< the paper's exact 2-D EHVI with Kriging believer
  kRandomUnobserved,  ///< uniform over unobserved candidates (ablation)
  /// Marginal Thompson sampling: draw one posterior sample per candidate
  /// and objective, pick the candidate whose sampled point adds the most
  /// hypervolume.  A classic MBO baseline between random and EHVI.
  kThompsonMarginal,
};

struct MboOptions {
  gp::KernelFamily kernel_family = gp::KernelFamily::kMatern52;
  AcquisitionKind acquisition = AcquisitionKind::kEhvi;
  /// Upper bound on one batch (the paper caps at ~10 to bound MBO latency).
  std::size_t max_batch_size = 10;
  /// Escape hatch: run propose_batch on the reference algebra — full O(n^3)
  /// GP refactorization per fantasy pick and per-candidate kernel
  /// evaluations — instead of the default incremental path (O(n^2) rank-1
  /// Cholesky updates, cached cross-covariances, blocked candidate solves).
  /// Both paths propose from the same posterior; the incremental one only
  /// reorders floating-point work.  Used by the differential tests and the
  /// fig. 13 overhead benchmark baseline.
  bool full_refit = false;
  /// Escape hatch: score candidates with libm-exact EHVI (bit-identical to
  /// the reference ehvi_2d) instead of the default batched polynomial
  /// kernel (CompiledFront kFast, ~3e-9 relative error).  Differential
  /// tests pin the two modes against each other.
  bool exact_ehvi = false;
  /// Hyperparameter-fit cadence.  Every Nth propose_batch runs the full
  /// multi-restart marginal-likelihood search; the fits in between are
  /// warm-started from the previous optimum (a short local polish, an order
  /// of magnitude fewer LML evaluations).  The optimum drifts slowly as
  /// observations accumulate, so the polish tracks it; the periodic full
  /// search bounds any drift.  0 = always run the full search.
  std::size_t hyperopt_refresh_period = 5;
  gp::HyperoptOptions hyperopt;
};

/// The fewest observations propose_batch fits its surrogates to.
inline constexpr std::size_t kMinProposeObservations = 3;

/// One completed measurement of a candidate.
struct MboObservation {
  std::size_t candidate_index = 0;
  double f1 = 0.0;  ///< first objective, raw units (BoFL: energy per job, J)
  double f2 = 0.0;  ///< second objective, raw units (BoFL: latency per job, s)
};

class MboEngine {
 public:
  /// `candidates` are the feature vectors of the whole discrete design
  /// space, normalized to comparable scales (BoFL uses [0,1]^3).
  MboEngine(std::vector<linalg::Vector> candidates, MboOptions options,
            std::uint64_t seed);

  /// Record a measurement.  A candidate may be re-observed; all
  /// observations are kept (the GP averages through its noise term).
  void add_observation(const MboObservation& obs);

  /// Fix the reference point (raw objective units).  If never called, the
  /// component-wise worst observation is used (the paper's phase-1 rule).
  void set_reference(const pareto::Point2& ref);
  [[nodiscard]] pareto::Point2 reference() const;

  /// Greedy EHVI batch of up to `batch_size` *distinct unobserved*
  /// candidates (also capped by options.max_batch_size and by the number of
  /// unobserved candidates left).  Requires at least
  /// kMinProposeObservations observations.
  [[nodiscard]] std::vector<std::size_t> propose_batch(std::size_t batch_size);

  /// Fit hyperparameters and score candidates on `pool` (non-owning;
  /// nullptr = serial, the default).  Hyperopt restart starts are drawn
  /// before the restarts run, per-candidate acquisition values are
  /// independent — RNG draws (Thompson) are pre-split per candidate — and
  /// every argmax stays serial, so batches are bit-identical for any pool
  /// size.
  void set_parallel_pool(runtime::ThreadPool* pool) { pool_ = pool; }

  /// Pareto front of the raw observations.
  [[nodiscard]] std::vector<pareto::Point2> observed_front() const;

  /// Hypervolume of the observed front w.r.t. reference(), raw units.
  [[nodiscard]] double observed_hypervolume() const;

  /// EHVI of the first (best) pick in the most recent batch, in the
  /// engine's internal standardized space.  Diagnostic / stopping signal.
  [[nodiscard]] std::optional<double> last_best_ehvi() const {
    return last_best_ehvi_;
  }

  [[nodiscard]] std::size_t num_candidates() const { return candidates_.size(); }
  [[nodiscard]] std::size_t num_observations() const {
    return observations_.size();
  }
  /// Number of distinct candidates observed at least once (O(1): maintained
  /// by add_observation, not recounted).
  [[nodiscard]] std::size_t num_observed_candidates() const {
    return num_observed_candidates_;
  }
  [[nodiscard]] bool is_observed(std::size_t candidate_index) const;
  [[nodiscard]] const std::vector<linalg::Vector>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] const std::vector<MboObservation>& observations() const {
    return observations_;
  }

  /// The attached pool (non-owning; nullptr = serial).  Lets a
  /// consumer rebuild an engine (priors demotion) and re-attach the pool.
  [[nodiscard]] runtime::ThreadPool* parallel_pool() const { return pool_; }

  /// Last hyperparameter-fit optima per objective (unset before any fit, or
  /// after construction without seeding).  The priors KnowledgeStore
  /// distills these from converged controllers for cross-client reuse.
  [[nodiscard]] const std::optional<gp::HyperoptResult>& warm_fit1() const {
    return warm_fit1_;
  }
  [[nodiscard]] const std::optional<gp::HyperoptResult>& warm_fit2() const {
    return warm_fit2_;
  }

  /// Seed the warm-start fit state from a cluster prior so the first
  /// propose_batch runs the cheap local polish instead of the multi-restart
  /// search.  Validates both fits against the engine's kernel family and
  /// input dimension; on mismatch nothing changes and false is returned.
  bool seed_warm_start(const gp::HyperoptResult& fit1,
                       const gp::HyperoptResult& fit2);

 private:
  struct Standardizer {
    double mean = 0.0;
    double scale = 1.0;
    [[nodiscard]] double forward(double raw_transformed) const {
      return (raw_transformed - mean) / scale;
    }
  };

  [[nodiscard]] double transform(double raw) const;

  std::vector<linalg::Vector> candidates_;
  MboOptions options_;
  runtime::ThreadPool* pool_ = nullptr;
  Rng rng_;
  std::vector<MboObservation> observations_;
  std::vector<bool> observed_;
  std::size_t num_observed_candidates_ = 0;  ///< distinct candidates observed
  std::optional<pareto::Point2> reference_;
  std::optional<double> last_best_ehvi_;
  /// Warm-start state for the per-objective hyperparameter fits: the last
  /// optima and how many fits have run (drives hyperopt_refresh_period).
  std::optional<gp::HyperoptResult> warm_fit1_;
  std::optional<gp::HyperoptResult> warm_fit2_;
  std::size_t hyperopt_fits_ = 0;
};

}  // namespace bofl::bo
