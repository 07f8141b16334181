#include "pareto/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace bofl::pareto {
namespace {

const std::vector<Point2> kReference{{1.0, 4.0}, {2.0, 2.0}, {4.0, 1.0}};

TEST(Epsilon, ZeroForIdenticalFronts) {
  EXPECT_DOUBLE_EQ(additive_epsilon(kReference, kReference), 0.0);
}

TEST(Epsilon, PositiveForDominatedApproximation) {
  // Shift the whole front up by 0.5 in both objectives.
  std::vector<Point2> worse;
  for (const Point2& p : kReference) {
    worse.push_back({p.f1 + 0.5, p.f2 + 0.5});
  }
  EXPECT_NEAR(additive_epsilon(worse, kReference), 0.5, 1e-12);
}

TEST(Epsilon, NegativeWhenApproximationDominates) {
  std::vector<Point2> better;
  for (const Point2& p : kReference) {
    better.push_back({p.f1 - 0.25, p.f2 - 0.25});
  }
  EXPECT_NEAR(additive_epsilon(better, kReference), -0.25, 1e-12);
}

TEST(Epsilon, SubsetCoversPartially) {
  // Approximation has only the middle point: the corners are covered within
  // max coordinate gap.
  const std::vector<Point2> approx{{2.0, 2.0}};
  // For r = (1,4): max(2-1, 2-4) = 1; for r = (4,1): max(-2, 1) = 1.
  EXPECT_DOUBLE_EQ(additive_epsilon(approx, kReference), 1.0);
}

TEST(InvertedGenerationalDistance, PenalizesIncompleteCoverage) {
  const std::vector<Point2> subset{{2.0, 2.0}};
  // IGD averages the reference points' distances to (2,2):
  // sqrt(1+4) + 0 + sqrt(4+1) over 3.
  EXPECT_NEAR(inverted_generational_distance(subset, kReference),
              2.0 * std::sqrt(5.0) / 3.0, 1e-12);
  // A complete approximation has IGD 0.
  EXPECT_DOUBLE_EQ(inverted_generational_distance(kReference, kReference),
                   0.0);
}

TEST(QualityIndicators, RejectEmptyFronts) {
  EXPECT_THROW((void)additive_epsilon({}, kReference),
               std::invalid_argument);
  EXPECT_THROW((void)inverted_generational_distance({}, {}),
               std::invalid_argument);
}

// Property: for random fronts, epsilon of a front against itself is <= 0,
// and IGD shrinks as the approximation grows.
class QualityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QualityProperty, IndicatorsBehaveMonotonically) {
  Rng rng(GetParam() * 11 + 3);
  std::vector<Point2> reference;
  for (int i = 0; i < 20; ++i) {
    reference.push_back({rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
  }
  EXPECT_LE(additive_epsilon(reference, reference), 1e-12);

  std::vector<Point2> partial(reference.begin(), reference.begin() + 5);
  const double igd_partial =
      inverted_generational_distance(partial, reference);
  const double igd_full =
      inverted_generational_distance(reference, reference);
  EXPECT_GE(igd_partial, igd_full);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace bofl::pareto
