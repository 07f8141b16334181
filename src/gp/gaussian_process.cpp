#include "gp/gaussian_process.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::gp {

double Prediction::stddev() const { return std::sqrt(std::max(variance, 0.0)); }

GaussianProcess::GaussianProcess(Kernel kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance) {
  BOFL_REQUIRE(noise_variance >= 0.0, "noise variance must be non-negative");
}

void GaussianProcess::condition(std::vector<linalg::Vector> inputs,
                                std::vector<double> targets) {
  BOFL_REQUIRE(inputs.size() == targets.size(),
               "inputs and targets must have equal length");
  for (const auto& x : inputs) {
    BOFL_REQUIRE(x.size() == kernel_.input_dimension(),
                 "input dimension mismatch");
  }
  inputs_ = std::move(inputs);
  targets_ = std::move(targets);
  refit();
}

void GaussianProcess::set_hyperparameters(Kernel kernel,
                                          double noise_variance) {
  BOFL_REQUIRE(noise_variance >= 0.0, "noise variance must be non-negative");
  BOFL_REQUIRE(kernel.input_dimension() == kernel_.input_dimension(),
               "input dimension mismatch");
  kernel_ = std::move(kernel);
  noise_variance_ = noise_variance;
  refit();
}

void GaussianProcess::add_observation(linalg::Vector input, double target) {
  BOFL_REQUIRE(input.size() == kernel_.input_dimension(),
               "input dimension mismatch");
  if (full_refit_ || inputs_.empty()) {
    inputs_.push_back(std::move(input));
    targets_.push_back(target);
    refit();
    return;
  }
  // Incremental path: border the factor with the new row in O(n^2).  The
  // existing factor absorbed `jitter_` on its whole diagonal, so the new
  // diagonal entry carries the same jitter to stay one coherent matrix.
  const linalg::Vector cross = kernel_.cross(input, inputs_);
  const double diag = kernel_.signal_variance() + noise_variance_ + jitter_;
  auto extended = linalg::cholesky_append_row(chol_, cross, diag);
  inputs_.push_back(std::move(input));
  targets_.push_back(target);
  if (!extended.has_value()) {
    refit();  // indefinite border (e.g. duplicate noiseless point): re-jitter
    return;
  }
  chol_ = std::move(*extended);
  linalg::solve_cholesky(chol_, targets_, alpha_);
}

void GaussianProcess::refit() {
  if (inputs_.empty()) {
    chol_.assign(0, 0);
    alpha_.clear();
    jitter_ = 0.0;
    return;
  }
  kernel_.gram(inputs_, gram_, pool_);
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    gram_(i, i) += noise_variance_;
  }
  jitter_ = linalg::cholesky_with_jitter(gram_, chol_);
  linalg::solve_cholesky(chol_, targets_, alpha_);
}

Prediction GaussianProcess::predict(const linalg::Vector& x) const {
  BOFL_REQUIRE(x.size() == kernel_.input_dimension(),
               "input dimension mismatch");
  if (inputs_.empty()) {
    return {0.0, kernel_.signal_variance()};
  }
  return predict_from_cross(kernel_.cross(x, inputs_));
}

Prediction GaussianProcess::predict_from_cross(
    const linalg::Vector& k_star) const {
  if (inputs_.empty()) {
    return {0.0, kernel_.signal_variance()};
  }
  BOFL_REQUIRE(k_star.size() == inputs_.size(),
               "cross-covariance length mismatch");
  const double mean = linalg::dot(k_star, alpha_);
  // variance = k(x,x) - k*^T (K + s^2 I)^{-1} k* computed via v = L^{-1} k*.
  const linalg::Vector v = linalg::solve_lower(chol_, k_star);
  const double variance = kernel_.signal_variance() - linalg::dot(v, v);
  return {mean, std::max(variance, 0.0)};
}

void GaussianProcess::predict_block(
    const std::vector<linalg::Vector>& k_star_rows, const std::size_t* indices,
    std::size_t count, Prediction* out) const {
  if (count == 0) {
    return;
  }
  if (inputs_.empty()) {
    for (std::size_t j = 0; j < count; ++j) {
      out[j] = {0.0, kernel_.signal_variance()};
    }
    return;
  }
  const std::size_t n = inputs_.size();
  // Gather the block's cross-covariance rows as the columns of one n x count
  // right-hand-side matrix, then run a single blocked forward substitution.
  linalg::Matrix b(n, count);
  for (std::size_t j = 0; j < count; ++j) {
    const linalg::Vector& row = k_star_rows[indices[j]];
    BOFL_REQUIRE(row.size() == n, "cross-covariance length mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      b(i, j) = row[i];
    }
  }
  const linalg::Matrix v = linalg::solve_lower_multi(chol_, b);
  std::vector<double> explained(count, 0.0);
  linalg::simd::sumsq_rows_accumulate(v.row(0), n, count, explained.data());
  const double sv = kernel_.signal_variance();
  for (std::size_t j = 0; j < count; ++j) {
    const double mean = linalg::dot(k_star_rows[indices[j]], alpha_);
    out[j] = {mean, std::max(sv - explained[j], 0.0)};
  }
}

double GaussianProcess::log_marginal_likelihood() const {
  BOFL_REQUIRE(!inputs_.empty(), "log marginal likelihood needs data");
  const auto n = static_cast<double>(inputs_.size());
  const double data_fit = -0.5 * linalg::dot(targets_, alpha_);
  const double complexity = -0.5 * linalg::log_det_from_cholesky(chol_);
  const double constant = -0.5 * n * std::log(2.0 * M_PI);
  return data_fit + complexity + constant;
}

}  // namespace bofl::gp
