// Derivative-free local optimization (Nelder–Mead).
//
// Used by the GP layer to maximize the log marginal likelihood over kernel
// hyperparameters (a 3–4 dimensional smooth problem where gradients are
// awkward to thread through the Cholesky).  Multi-start restarts are the
// caller's job; see gp/hyperopt.
#pragma once

#include <functional>
#include <vector>

namespace bofl {

struct NelderMeadOptions {
  std::size_t max_iterations = 400;
  /// Initial simplex edge length (per coordinate, relative step with an
  /// absolute floor).
  double initial_step = 0.25;
};

struct NelderMeadResult {
  std::vector<double> x;
  double f = 0.0;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Minimize `f` starting from `x0` with the Nelder–Mead simplex method
/// (standard reflection/expansion/contraction/shrink coefficients).  Stops
/// after `max_iterations`, or converged once the simplex function-value
/// spread falls below 1e-9 and its diameter below 1e-7.
[[nodiscard]] NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, const NelderMeadOptions& options = {});

}  // namespace bofl
