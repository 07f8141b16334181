#include "pareto/pareto.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace bofl::pareto {
namespace {

TEST(Dominance, BasicCases) {
  EXPECT_TRUE(dominates(Point2{1.0, 1.0}, Point2{2.0, 2.0}));
  EXPECT_TRUE(dominates(Point2{1.0, 2.0}, Point2{1.0, 3.0}));
  EXPECT_FALSE(dominates(Point2{1.0, 1.0}, Point2{1.0, 1.0}));  // equal
  EXPECT_FALSE(dominates(Point2{1.0, 3.0}, Point2{2.0, 2.0}));  // trade-off
  EXPECT_FALSE(dominates(Point2{2.0, 2.0}, Point2{1.0, 1.0}));
}

TEST(Dominance, IsAntisymmetric) {
  const Point2 a{1.0, 2.0};
  const Point2 b{2.0, 1.5};
  EXPECT_FALSE(dominates(a, b) && dominates(b, a));
}

TEST(NonDominatedIndices, SimpleFront) {
  const std::vector<Point2> points{
      {1.0, 5.0}, {2.0, 3.0}, {3.0, 4.0}, {4.0, 1.0}, {5.0, 5.0}};
  const auto idx = non_dominated_indices(points);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(NonDominatedIndices, AllIncomparable) {
  const std::vector<Point2> points{{1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}};
  EXPECT_EQ(non_dominated_indices(points).size(), 3u);
}

TEST(NonDominatedIndices, DuplicatesAllKept) {
  const std::vector<Point2> points{{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  EXPECT_EQ(non_dominated_indices(points),
            (std::vector<std::size_t>{0, 1}));
}

TEST(ParetoFront, SortedAndClean) {
  const std::vector<Point2> points{
      {3.0, 1.0}, {1.0, 5.0}, {2.0, 3.0}, {2.5, 3.5}, {4.0, 0.9}};
  const auto front = pareto_front(points);
  ASSERT_EQ(front.size(), 4u);
  // Ascending f1, strictly descending f2.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LT(front[i - 1].f1, front[i].f1);
    EXPECT_GT(front[i - 1].f2, front[i].f2);
  }
}

TEST(ParetoFront, CollapsesDuplicates) {
  const std::vector<Point2> points{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_EQ(pareto_front(points).size(), 1u);
}

TEST(ParetoFront, EmptyInput) {
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(ParetoFront, SinglePoint) {
  const auto front = pareto_front({{2.0, 3.0}});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], (Point2{2.0, 3.0}));
}

// Property test across random point clouds:
//  (1) front members are mutually non-dominated,
//  (2) every input point is dominated by or equal to some front member,
//  (3) pareto_front and non_dominated_indices agree on the objective set.
class ParetoFrontProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoFrontProperty, FrontIsCorrect) {
  Rng rng(GetParam());
  std::vector<Point2> points;
  const std::size_t n = 5 + rng.uniform_index(60);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  }
  const auto front = pareto_front(points);

  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(dominates(front[i], front[j]));
      }
    }
  }
  for (const Point2& p : points) {
    bool covered = false;
    for (const Point2& f : front) {
      if (f == p || dominates(f, p)) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered);
  }
  // Cross-check against the quadratic reference implementation.
  const auto idx = non_dominated_indices(points);
  std::vector<Point2> reference;
  for (std::size_t i : idx) {
    reference.push_back(points[i]);
  }
  const auto reference_front = pareto_front(reference);
  EXPECT_EQ(reference_front.size(), front.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFrontProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace bofl::pareto
