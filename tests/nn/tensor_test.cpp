#include "nn/tensor.hpp"

#include <gtest/gtest.h>

namespace bofl::nn {
namespace {

TEST(Tensor, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_FLOAT_EQ(t.at(1, 2), 1.5f);
  t.fill(0.25f);
  EXPECT_FLOAT_EQ(t[0], 0.25f);
}

TEST(Tensor, RandnStatistics) {
  Rng rng(5);
  const Tensor t = Tensor::randn({100, 100}, rng, 2.0f);
  double sum = 0.0;
  double sq = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double mean = sum / static_cast<double>(t.size());
  const double var = sq / static_cast<double>(t.size()) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Tensor, AddScaled) {
  Tensor a({2, 2}, 1.0f);
  const Tensor b({2, 2}, 2.0f);
  a.add_scaled(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 2.0f);
  Tensor c({2, 3});
  EXPECT_THROW(a.add_scaled(c, 1.0f), std::invalid_argument);
}

TEST(Tensor, RejectsZeroDimension) {
  EXPECT_THROW(Tensor({2, 0}), std::invalid_argument);
}

TEST(Matmul, KnownProduct) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  for (std::size_t i = 0; i < 6; ++i) {
    a[i] = static_cast<float>(i + 1);       // [[1,2,3],[4,5,6]]
    b[i] = static_cast<float>(6 - i);       // [[6,5],[4,3],[2,1]]
  }
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 20.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 14.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 56.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 41.0f);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(7);
  const Tensor a = Tensor::randn({4, 3}, rng, 1.0f);
  const Tensor b = Tensor::randn({3, 5}, rng, 1.0f);
  const Tensor c = matmul(a, b);

  // matmul_transposed_b(a, b^T) == a b.
  Tensor bt({5, 3});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      bt.at(j, i) = b.at(i, j);
    }
  }
  const Tensor c2 = matmul_transposed_b(a, bt);
  // matmul_transposed_a(a^T, b) == a b.
  Tensor at({3, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      at.at(j, i) = a.at(i, j);
    }
  }
  const Tensor c3 = matmul_transposed_a(at, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c2[i], c[i], 1e-5);
    EXPECT_NEAR(c3[i], c[i], 1e-5);
  }
}

TEST(Matmul, ShapeMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({2, 3});
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace bofl::nn
