#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bofl {
namespace {

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-12);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-15);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-9);
  EXPECT_NEAR(normal_cdf(6.0), 1.0, 1e-9);
}

// psi_ei(a, b, mu, sigma) = E[(a - Y) 1{Y <= b}]: validate against a
// Monte-Carlo estimate across parameter combinations.
class PsiEiMonteCarlo
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(PsiEiMonteCarlo, MatchesSimulation) {
  const auto [a, b, mu] = GetParam();
  const double sigma = 0.8;
  Rng rng(1234);
  double sum = 0.0;
  constexpr int kSamples = 400000;
  for (int i = 0; i < kSamples; ++i) {
    const double y = rng.normal(mu, sigma);
    if (y <= b) {
      sum += a - y;
    }
  }
  const double mc = sum / kSamples;
  EXPECT_NEAR(psi_ei(a, b, mu, sigma), mc, 0.02)
      << "a=" << a << " b=" << b << " mu=" << mu;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PsiEiMonteCarlo,
    ::testing::Values(std::make_tuple(0.0, 0.0, 0.0),
                      std::make_tuple(1.0, 1.0, 0.0),
                      std::make_tuple(1.0, 0.5, 0.0),
                      std::make_tuple(-0.5, 0.5, 1.0),
                      std::make_tuple(2.0, 1.0, -1.0),
                      std::make_tuple(0.3, 2.0, 0.7)));

TEST(PsiEi, DegenerateSigmaZero) {
  EXPECT_DOUBLE_EQ(psi_ei(2.0, 1.0, 0.5, 0.0), 1.5);  // mu <= b: a - mu
  EXPECT_DOUBLE_EQ(psi_ei(2.0, 1.0, 1.5, 0.0), 0.0);  // mu > b
  EXPECT_DOUBLE_EQ(psi_ei(0.2, 1.0, 0.5, 0.0), 0.0);  // a < mu: clamped
}

TEST(PsiEi, RejectsNegativeSigma) {
  EXPECT_THROW((void)psi_ei(0.0, 0.0, 0.0, -1.0), std::invalid_argument);
}

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> values{1.0, 2.0, 4.0, 8.0, 16.0};
  for (double v : values) {
    stats.add(v);
  }
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 6.2);
  EXPECT_NEAR(stats.variance(), 29.76, 1e-12);
  EXPECT_NEAR(stats.sample_variance(), 37.2, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 16.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  stats.add(5.0);
  EXPECT_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 5.0);
  EXPECT_EQ(stats.max(), 5.0);
}

TEST(VectorStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0, 6.0}), 4.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0, 6.0}), 2.0, 1e-12);
  EXPECT_EQ(mean_of({}), 0.0);
  EXPECT_EQ(stddev_of({1.0}), 0.0);
}

}  // namespace
}  // namespace bofl
