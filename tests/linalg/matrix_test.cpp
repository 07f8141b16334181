#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace bofl::linalg {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, InitializerListRejectsRagged) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  const Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 4.0);
}

TEST(Matrix, Product) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

// The product must agree with the textbook triple loop on every shape,
// including matrices containing exact zeros.
TEST(Matrix, ProductMatchesNaiveReference) {
  Rng rng(71);
  const std::size_t shapes[][3] = {{1, 1, 1}, {2, 3, 4}, {3, 5, 2},
                                   {4, 4, 4}, {5, 4, 6}, {7, 2, 9},
                                   {8, 8, 8}, {9, 6, 5}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]);
    Matrix b(s[1], s[2]);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        a(r, c) = rng.uniform() < 0.2 ? 0.0 : rng.normal();
      }
    }
    for (std::size_t r = 0; r < b.rows(); ++r) {
      for (std::size_t c = 0; c < b.cols(); ++c) {
        b(r, c) = rng.normal();
      }
    }
    const Matrix fast = a * b;
    for (std::size_t i = 0; i < s[0]; ++i) {
      for (std::size_t j = 0; j < s[2]; ++j) {
        double sum = 0.0;
        for (std::size_t k = 0; k < s[1]; ++k) {
          sum += a(i, k) * b(k, j);
        }
        EXPECT_NEAR(fast(i, j), sum, 1e-12)
            << s[0] << "x" << s[1] << "x" << s[2] << " at (" << i << "," << j
            << ")";
      }
    }
  }
}

TEST(Matrix, RowAccessorAliasesStorage) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  m.row(1)[0] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
  const Matrix& cm = m;
  EXPECT_DOUBLE_EQ(cm.row(0)[1], 2.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
}

TEST(Matrix, MatrixVectorProduct) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Vector x{1.0, 0.0, -1.0};
  const Vector y = a * x;
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(VectorOps, Dot) {
  const Vector a{3.0, 4.0};
  const Vector b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
}

TEST(VectorOps, SizeMismatchThrows) {
  EXPECT_THROW((void)dot({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace bofl::linalg
