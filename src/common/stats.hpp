// Scalar statistics and normal-distribution primitives.
//
// The exact EHVI computation (src/bo) and the GP marginal likelihood
// (src/gp) are built on the standard normal pdf/cdf and the one-dimensional
// expected-improvement primitive psi(a, b, mu, sigma).  RunningStats is a
// Welford accumulator used wherever streaming means/variances are needed
// (measurement averaging, benchmark summaries).
#pragma once

#include <cstddef>
#include <vector>

namespace bofl {

/// Standard normal probability density.
[[nodiscard]] double normal_pdf(double z);

/// Standard normal cumulative distribution (via erfc for accuracy in tails).
[[nodiscard]] double normal_cdf(double z);

/// Hypervolume-improvement building block (Emmerich & Yang):
///   psi(a, b, mu, sigma) = E[max(a - Y, 0) * 1{Y <= b}] for Y ~ N(mu, s^2)
///                        = sigma * pdf((b-mu)/sigma) + (a-mu) * cdf((b-mu)/sigma)
/// For sigma == 0 it degenerates to (a - mu) * 1{mu <= b} with the usual
/// truncation conventions.
[[nodiscard]] double psi_ei(double a, double b, double mu, double sigma);

/// Welford streaming mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Population variance (n denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double sample_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a vector (0 for empty input).
[[nodiscard]] double mean_of(const std::vector<double>& values);

/// Sample standard deviation of a vector (0 for fewer than 2 values).
[[nodiscard]] double stddev_of(const std::vector<double>& values);

}  // namespace bofl
