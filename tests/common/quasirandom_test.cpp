#include "common/quasirandom.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace bofl {
namespace {

/// Star-discrepancy estimate over axis-aligned boxes anchored at the
/// origin, with corners taken from the point coordinates themselves (plus
/// 1.0) — the standard corner-grid lower bound D*_N.  Both the open count
/// (points strictly inside) and the closed count (boundary included) are
/// compared against the box volume, so the supremum over box edges is not
/// missed.  O(N^3): fine for the N used here.
double star_discrepancy_2d(const std::vector<std::vector<double>>& points) {
  const double n = static_cast<double>(points.size());
  std::vector<double> xs{1.0};
  std::vector<double> ys{1.0};
  for (const auto& p : points) {
    xs.push_back(p[0]);
    ys.push_back(p[1]);
  }
  double worst = 0.0;
  for (const double x : xs) {
    for (const double y : ys) {
      double open = 0.0;
      double closed = 0.0;
      for (const auto& p : points) {
        if (p[0] < x && p[1] < y) {
          open += 1.0;
        }
        if (p[0] <= x && p[1] <= y) {
          closed += 1.0;
        }
      }
      const double volume = x * y;
      worst = std::max(worst, std::abs(open / n - volume));
      worst = std::max(worst, std::abs(closed / n - volume));
    }
  }
  return worst;
}

TEST(Sobol, PointsInUnitCube) {
  SobolSequence seq(3);
  for (const auto& p : seq.take(1000)) {
    ASSERT_EQ(p.size(), 3u);
    for (double x : p) {
      EXPECT_GE(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(Sobol, FirstDimensionIsVanDerCorput) {
  SobolSequence seq(1);
  const auto points = seq.take(5);
  EXPECT_DOUBLE_EQ(points[0][0], 0.0);
  EXPECT_DOUBLE_EQ(points[1][0], 0.5);
  EXPECT_DOUBLE_EQ(points[2][0], 0.75);
  EXPECT_DOUBLE_EQ(points[3][0], 0.25);
  EXPECT_DOUBLE_EQ(points[4][0], 0.375);
}

TEST(Sobol, PointsAreDistinct) {
  SobolSequence seq(3);
  std::set<std::vector<double>> seen;
  for (const auto& p : seq.take(512)) {
    EXPECT_TRUE(seen.insert(p).second) << "duplicate Sobol point";
  }
}

TEST(Sobol, CoversCoarseGridFast) {
  SobolSequence seq(2);
  constexpr int kGrid = 4;
  std::set<int> cells;
  for (const auto& p : seq.take(64)) {
    const int cx = std::min(static_cast<int>(p[0] * kGrid), kGrid - 1);
    const int cy = std::min(static_cast<int>(p[1] * kGrid), kGrid - 1);
    cells.insert(cx * kGrid + cy);
  }
  EXPECT_EQ(cells.size(), static_cast<std::size_t>(kGrid * kGrid));
}

TEST(Sobol, BalancedFirstCoordinate) {
  SobolSequence seq(3);
  int low = 0;
  const auto points = seq.take(256);
  for (const auto& p : points) {
    low += p[0] < 0.5 ? 1 : 0;
  }
  EXPECT_EQ(low, 128);  // exact balance is a defining Sobol property
}

TEST(Sobol, RejectsUnsupportedDimension) {
  EXPECT_THROW(SobolSequence(0), std::invalid_argument);
  EXPECT_THROW(SobolSequence(9), std::invalid_argument);
}

/// The property that justifies quasi-random phase-1 sampling: at N = 256
/// the low-discrepancy sequence sits well below the ~N^{-1/2} discrepancy a
/// pseudo-random sample converges at (E[D*] ≈ 0.06 here), while Sobol
/// scales as (log N)^2 / N ≈ 0.02.  The pseudo-random draw uses a fixed
/// seed, so the comparison is deterministic.
TEST(Discrepancy, SobolBeatsPseudoRandom) {
  constexpr std::size_t kN = 256;

  SobolSequence sobol(2);
  std::vector<std::vector<double>> sobol_pts = sobol.take(kN);

  Rng rng(12345);
  std::vector<std::vector<double>> random_pts(kN);
  for (auto& p : random_pts) {
    p = {rng.uniform(), rng.uniform()};
  }

  const double d_sobol = star_discrepancy_2d(sobol_pts);
  const double d_random = star_discrepancy_2d(random_pts);

  // Absolute quality: the sequence beats the Monte-Carlo rate by a wide
  // margin at this N.
  EXPECT_LT(d_sobol, 0.035) << "Sobol discrepancy " << d_sobol;
  // Relative quality: and it beats the concrete pseudo-random draw.
  EXPECT_LT(d_sobol, d_random);
  // Sanity on the estimator itself: a random sample at N=256 lands in the
  // Monte-Carlo regime, not accidentally low-discrepancy.
  EXPECT_GT(d_random, 0.035);
}

TEST(GridProjection, MapsUnitPointToIndices) {
  const auto idx = to_grid_indices({0.0, 0.5, 0.999}, {4, 4, 4});
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 2u);
  EXPECT_EQ(idx[2], 3u);
}

TEST(GridProjection, ClampsOutOfRange) {
  const auto idx = to_grid_indices({1.0, -0.2}, {5, 5});
  EXPECT_EQ(idx[0], 4u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(GridProjection, RejectsDimensionMismatch) {
  EXPECT_THROW((void)to_grid_indices({0.5}, {4, 4}), std::invalid_argument);
}

}  // namespace
}  // namespace bofl
