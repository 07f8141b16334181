#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl {

double normal_pdf(double z) {
  static const double kInvSqrt2Pi = 1.0 / std::sqrt(2.0 * M_PI);
  return kInvSqrt2Pi * std::exp(-0.5 * z * z);
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z * M_SQRT1_2);
}

double psi_ei(double a, double b, double mu, double sigma) {
  BOFL_REQUIRE(sigma >= 0.0, "psi_ei needs sigma >= 0");
  if (sigma == 0.0) {
    // Deterministic Y = mu: contributes (a - mu) if mu <= b and a >= mu.
    return (mu <= b) ? std::max(a - mu, 0.0) : 0.0;
  }
  const double t = (b - mu) / sigma;
  return sigma * normal_pdf(t) + (a - mu) * normal_cdf(t);
}

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::sample_variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double mean_of(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) {
    s.add(v);
  }
  return s.mean();
}

double stddev_of(const std::vector<double>& values) {
  RunningStats s;
  for (double v : values) {
    s.add(v);
  }
  return std::sqrt(s.sample_variance());
}

}  // namespace bofl
