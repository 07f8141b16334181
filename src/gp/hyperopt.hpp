// Kernel-hyperparameter fitting by maximizing the log marginal likelihood.
//
// Parameters are optimized in log space (lengthscales, signal variance,
// noise variance are all positive) with multi-start Nelder–Mead.  Bounds
// keep the optimizer out of degenerate corners (lengthscale 10^6, noise
// swallowing the signal), which matters with the ~10 observations BoFL has
// after phase 1.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "gp/gaussian_process.hpp"
#include "runtime/thread_pool.hpp"

namespace bofl::gp {

/// The lengthscale and variance bounds are fixed in hyperopt.cpp.
struct HyperoptOptions {
  std::size_t num_restarts = 4;
  std::size_t max_iterations_per_start = 200;
};

struct HyperoptResult {
  Kernel kernel;
  double noise_variance = 0.0;
  double log_marginal_likelihood = 0.0;
};

/// One GP's hyperparameter search: `family` kernels on (inputs, targets).
/// Inputs are expected normalized to [0,1]^d and targets standardized
/// (mean 0, unit variance) — the hyperparameter bounds assume that
/// scaling.  The referenced data must outlive the fit.
///
/// When `warm_start` is non-null, the multi-start search is replaced by one
/// short local polish seeded at the warm-start's hyperparameters (which must
/// match `family` and the input dimension).  The warm path draws nothing
/// from the Rng, so it is bitwise deterministic given the data and the start.
struct HyperoptProblem {
  KernelFamily family;
  const std::vector<linalg::Vector>& inputs;
  const std::vector<double>& targets;
  const HyperoptResult* warm_start = nullptr;
};

/// Fit every problem and return the best kernel found for each, in order.
/// All random restart starts are drawn from `rng` up front, problem by
/// problem and restart by restart, before any Nelder–Mead run; the runs of
/// every problem then share one parallel_for_each region on `pool`
/// (nullptr = serial), and each problem keeps its first strictly best run.
/// The result and the draws from `rng` are therefore bit-identical to
/// fitting the problems one after another, for any pool size.
[[nodiscard]] std::vector<HyperoptResult> fit_hyperparameters(
    std::span<const HyperoptProblem> problems, Rng& rng,
    const HyperoptOptions& options = {},
    runtime::ThreadPool* pool = nullptr);

/// True when `fit` can seed a warm-started refit for `family` kernels on
/// `input_dimension`-dimensional inputs: same family, matching ARD width,
/// and finite positive hyperparameters.  The priors subsystem gates
/// cross-client hyperparameter reuse on this before touching an engine.
[[nodiscard]] bool warm_start_compatible(const HyperoptResult& fit,
                                         KernelFamily family,
                                         std::size_t input_dimension);

}  // namespace bofl::gp
