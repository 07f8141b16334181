#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace bofl::linalg {
namespace {

Matrix random_spd(std::size_t n, Rng& rng) {
  // A^T A + n * I is comfortably positive definite.
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = rng.normal();
    }
  }
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) {
    spd(i, i) += static_cast<double>(n);
  }
  return spd;
}

TEST(Cholesky, KnownFactorization) {
  const Matrix a{{4.0, 12.0, -16.0}, {12.0, 37.0, -43.0}, {-16.0, -43.0, 98.0}};
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(l(2, 0), -8.0);
  EXPECT_DOUBLE_EQ(l(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(l(2, 2), 3.0);
  EXPECT_EQ(l(0, 1), 0.0);
  EXPECT_EQ(l(0, 2), 0.0);
  EXPECT_EQ(l(1, 2), 0.0);
}

TEST(Cholesky, ReconstructsOriginal) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Matrix a = random_spd(6, rng);
    Matrix l;
    ASSERT_TRUE(cholesky(a, l));
    const Matrix rebuilt = l * l.transposed();
    for (std::size_t r = 0; r < 6; ++r) {
      for (std::size_t c = 0; c < 6; ++c) {
        EXPECT_NEAR(rebuilt(r, c), a(r, c), 1e-9);
      }
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  Matrix l;
  EXPECT_FALSE(cholesky(a, l));
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix l;
  EXPECT_THROW((void)cholesky(Matrix(2, 3), l), std::invalid_argument);
}

TEST(CholeskyJitter, NoJitterWhenHealthy) {
  Rng rng(7);
  const Matrix a = random_spd(4, rng);
  Matrix l;
  EXPECT_EQ(cholesky_with_jitter(a, l), 0.0);
  Matrix plain;
  ASSERT_TRUE(cholesky(a, plain));
  EXPECT_EQ(l.data(), plain.data());
}

TEST(CholeskyJitter, RepairsSemiDefinite) {
  // Rank-1 matrix: positive semi-definite, singular.
  Matrix a(3, 3);
  const Vector v{1.0, 2.0, 3.0};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = v[r] * v[c];
    }
  }
  Matrix l;
  const double jitter = cholesky_with_jitter(a, l);
  EXPECT_GT(jitter, 0.0);
  // The factor must reproduce a + jitter * I, bit for bit the factor of an
  // explicitly jittered copy.
  const Matrix rebuilt = l * l.transposed();
  Matrix jittered = a;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(rebuilt(i, i), a(i, i) + jitter, 1e-8);
    jittered(i, i) += jitter;
  }
  Matrix reference;
  ASSERT_TRUE(cholesky(jittered, reference));
  EXPECT_EQ(l.data(), reference.data());
}

TEST(CholeskyJitter, ThrowsOnStructurallyBroken) {
  Matrix a{{-5.0, 0.0}, {0.0, -5.0}};
  Matrix l;
  EXPECT_THROW((void)cholesky_with_jitter(a, l, 1e-10, 1e-4), InternalError);
}

TEST(CholeskyAppendRow, MatchesFullFactorization) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial);
    const Matrix full = random_spd(n, rng);
    // Factor the leading (n-1) x (n-1) block, then append the last row.
    Matrix leading(n - 1, n - 1);
    Vector cross(n - 1);
    for (std::size_t r = 0; r + 1 < n; ++r) {
      cross[r] = full(r, n - 1);
      for (std::size_t c = 0; c + 1 < n; ++c) {
        leading(r, c) = full(r, c);
      }
    }
    Matrix l0;
    ASSERT_TRUE(cholesky(leading, l0));
    const auto appended = cholesky_append_row(l0, cross, full(n - 1, n - 1));
    ASSERT_TRUE(appended.has_value());
    Matrix reference;
    ASSERT_TRUE(cholesky(full, reference));
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c <= r; ++c) {
        EXPECT_NEAR((*appended)(r, c), reference(r, c), 1e-9);
      }
    }
  }
}

TEST(CholeskyAppendRow, GrowsFromEmptyFactor) {
  const Matrix empty(0, 0);
  const auto l = cholesky_append_row(empty, {}, 9.0);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->rows(), 1u);
  EXPECT_DOUBLE_EQ((*l)(0, 0), 3.0);
}

TEST(CholeskyAppendRow, ExtendsJitteredFactor) {
  // Rank-1 base needs jitter to factor at all; the appended row must then
  // carry the same jitter on its diagonal to stay consistent.
  Matrix a(3, 3);
  const Vector v{1.0, 2.0, 3.0};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      a(r, c) = v[r] * v[c];
    }
  }
  Matrix base;
  const double jitter = cholesky_with_jitter(a, base);
  ASSERT_GT(jitter, 0.0);
  // Append an independent direction: cross = 0, diag = 2 + jitter.
  const auto l = cholesky_append_row(base, {0.0, 0.0, 0.0}, 2.0 + jitter);
  ASSERT_TRUE(l.has_value());
  const Matrix rebuilt = (*l) * l->transposed();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(rebuilt(i, i), a(i, i) + jitter, 1e-8);
  }
  EXPECT_NEAR(rebuilt(3, 3), 2.0 + jitter, 1e-12);
  EXPECT_NEAR(rebuilt(3, 0), 0.0, 1e-12);
}

TEST(CholeskyAppendRow, RejectsNearSingularRow) {
  Rng rng(23);
  const Matrix a = random_spd(4, rng);
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  // Appending an exact copy of row 2 (diag = a(2,2)) makes the bordered
  // matrix singular: the O(n^2) update must refuse rather than emit a
  // catastrophically cancelled sqrt.
  Vector cross(4);
  for (std::size_t i = 0; i < 4; ++i) {
    cross[i] = a(i, 2);
  }
  EXPECT_FALSE(cholesky_append_row(l, cross, a(2, 2)).has_value());
}

TEST(CholeskyAppendRow, RejectsShapeMismatch) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  EXPECT_THROW((void)cholesky_append_row(l, {1.0}, 5.0),
               std::invalid_argument);
}

// Repeated appends vs. one from-scratch factorization: the incremental
// factor of a growing random SPD matrix stays within tight tolerance of
// the full refactorization (the GP fantasy-update invariant).
TEST(CholeskyAppendRow, RepeatedAppendsTrackFullFactorization) {
  Rng rng(31);
  const std::size_t n = 12;
  const Matrix full = random_spd(n, rng);
  Matrix leading(3, 3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      leading(r, c) = full(r, c);
    }
  }
  Matrix incremental;
  ASSERT_TRUE(cholesky(leading, incremental));
  for (std::size_t k = 3; k < n; ++k) {
    Vector cross(k);
    for (std::size_t i = 0; i < k; ++i) {
      cross[i] = full(i, k);
    }
    auto extended = cholesky_append_row(incremental, cross, full(k, k));
    ASSERT_TRUE(extended.has_value());
    incremental = std::move(*extended);
  }
  Matrix reference;
  ASSERT_TRUE(cholesky(full, reference));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      EXPECT_NEAR(incremental(r, c), reference(r, c), 1e-8);
    }
  }
}

TEST(SolveLowerMulti, MatchesPerColumnSolves) {
  Rng rng(41);
  const Matrix a = random_spd(7, rng);
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  const std::size_t m = 5;
  Matrix b(7, m);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      b(r, c) = rng.normal();
    }
  }
  const Matrix x = solve_lower_multi(l, b);
  for (std::size_t c = 0; c < m; ++c) {
    Vector col(7);
    for (std::size_t r = 0; r < 7; ++r) {
      col[r] = b(r, c);
    }
    const Vector ref = solve_lower(l, col);
    for (std::size_t r = 0; r < 7; ++r) {
      EXPECT_NEAR(x(r, c), ref[r], 1e-12);
    }
  }
}

TEST(SolveLowerMulti, RejectsShapeMismatch) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  EXPECT_THROW((void)solve_lower_multi(l, Matrix(3, 2)),
               std::invalid_argument);
}

TEST(TriangularSolve, ForwardAndBackward) {
  const Matrix a{{4.0, 12.0, -16.0}, {12.0, 37.0, -43.0}, {-16.0, -43.0, 98.0}};
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  const Vector b{1.0, 2.0, 3.0};
  Vector x;
  solve_cholesky(l, b, x);
  const Vector should_be_b = a * x;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(should_be_b[i], b[i], 1e-9);
  }
}

TEST(TriangularSolve, LowerThenTransposeRoundTrip) {
  const Matrix l{{2.0, 0.0}, {1.0, 3.0}};
  const Vector b{4.0, 10.0};
  const Vector y = solve_lower(l, b);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 8.0 / 3.0);
  Vector z = b;
  solve_lower_transpose_in_place(l, z);
  // L^T z = b -> z1 = (4 - 1*z2)/2 with z2 = 10/3.
  EXPECT_NEAR(z[1], 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(z[0], (4.0 - z[1]) / 2.0, 1e-12);
}

TEST(LogDet, MatchesDirectDeterminant) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};  // det = 8
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  EXPECT_NEAR(log_det_from_cholesky(l), std::log(8.0), 1e-12);
}

// Property sweep: solve_cholesky inverts multiplication for random SPD
// systems of several sizes.
class CholeskySolveProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySolveProperty, SolvesRandomSystems) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (double& v : b) {
    v = rng.normal();
  }
  Matrix l;
  ASSERT_TRUE(cholesky(a, l));
  Vector x;
  solve_cholesky(l, b, x);
  const Vector back = a * x;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(back[i], b[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bofl::linalg
