// Gaussian-process regression with exact (Cholesky-based) inference.
//
// Zero prior mean (the caller standardizes outputs; see bo::MboEngine),
// homoscedastic Gaussian observation noise.  Conditioning on a fresh data
// set is O(n^3) in the number of observations; appending one observation
// extends the existing factor in O(n^2) via a rank-1 Cholesky border
// (linalg::cholesky_append_row), which is what the Kriging-believer batch
// strategy hits twice per fantasy pick.  `set_full_refit(true)` restores
// the from-scratch refactorization as a reference/escape hatch.
#pragma once

#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace bofl::gp {

/// Posterior predictive distribution at one point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;  ///< latent-function variance (no observation noise)

  [[nodiscard]] double stddev() const;
};

class GaussianProcess {
 public:
  /// `noise_variance` is the observation-noise variance added to the kernel
  /// diagonal; must be non-negative (jitter keeps zero-noise GPs stable).
  GaussianProcess(Kernel kernel, double noise_variance);

  /// Condition the posterior on (inputs, targets).  Replaces any previous
  /// data.  Requires inputs.size() == targets.size() and matching dimension.
  void condition(std::vector<linalg::Vector> inputs,
                 std::vector<double> targets);

  /// Replace the kernel and noise variance and re-condition on the current
  /// data in place: the Gram, factor and alpha storage is reused, and the
  /// result is bit-identical to a fresh GaussianProcess with these
  /// hyperparameters conditioned on the same data (the hyperparameter
  /// search refits one GP per run this way).  The kernel's input dimension
  /// must match the current one.
  void set_hyperparameters(Kernel kernel, double noise_variance);

  /// Append one observation and re-condition (used for fantasy updates).
  /// Default: extends the Cholesky factor in O(n^2), falling back to a full
  /// refit when the bordered matrix is numerically indefinite (duplicate
  /// points with no noise).  With set_full_refit(true): always O(n^3).
  void add_observation(linalg::Vector input, double target);

  /// Force from-scratch refactorization on every add_observation — the
  /// reference path the incremental algebra is differentially tested
  /// against (bo::MboOptions::full_refit forwards here).
  void set_full_refit(bool on) { full_refit_ = on; }
  [[nodiscard]] bool full_refit() const { return full_refit_; }

  /// Gram builds during conditioning fan out over `pool` (non-owning;
  /// nullptr = serial, the default).  Results are pool-size-independent.
  void set_parallel_pool(runtime::ThreadPool* pool) { pool_ = pool; }

  [[nodiscard]] std::size_t num_observations() const { return inputs_.size(); }
  [[nodiscard]] const Kernel& kernel() const { return kernel_; }
  [[nodiscard]] double noise_variance() const { return noise_variance_; }
  /// Diagonal jitter the current factor absorbed (0 for healthy matrices).
  [[nodiscard]] double jitter() const { return jitter_; }
  [[nodiscard]] const std::vector<linalg::Vector>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<double>& targets() const { return targets_; }

  /// Posterior predictive at `x`.  With no observations this is the prior:
  /// mean 0, variance = signal variance.
  [[nodiscard]] Prediction predict(const linalg::Vector& x) const;

  /// Posterior predictive at a point whose cross-covariance vector against
  /// inputs() the caller already holds (k_star = kernel().cross(x, inputs())).
  /// Lets callers that cache cross-covariances (bo::MboEngine) skip the
  /// kernel evaluations predict() would redo.
  [[nodiscard]] Prediction predict_from_cross(
      const linalg::Vector& k_star) const;

  /// Batched posterior for `count` points: k_star_rows[indices[j]] is the
  /// cross-covariance row of point j, out[j] its prediction.  All variances
  /// come from one blocked multi-RHS triangular solve instead of `count`
  /// independent solves; results match predict_from_cross per point.
  void predict_block(const std::vector<linalg::Vector>& k_star_rows,
                     const std::size_t* indices, std::size_t count,
                     Prediction* out) const;

  /// Log marginal likelihood of the conditioned data under the current
  /// hyperparameters.  Requires at least one observation.
  [[nodiscard]] double log_marginal_likelihood() const;

 private:
  void refit();

  Kernel kernel_;
  double noise_variance_;
  bool full_refit_ = false;
  runtime::ThreadPool* pool_ = nullptr;
  std::vector<linalg::Vector> inputs_;
  std::vector<double> targets_;
  // Posterior cache: K + sigma^2 I (+ jitter I) = L L^T (empty with no
  // data), alpha = (K + sigma^2 I)^{-1} y, jitter_ = the jitter L absorbed.
  linalg::Matrix chol_;
  linalg::Vector alpha_;
  double jitter_ = 0.0;
  // Refit scratch: K + sigma^2 I, rebuilt in place by every refit.
  linalg::Matrix gram_;
};

}  // namespace bofl::gp
