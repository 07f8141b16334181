#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include "nn/gradient_check.hpp"

namespace bofl::nn {
namespace {

/// Scalar test loss: L = sum_ij w_ij * out_ij for fixed random w, so
/// dL/dout = w exactly.
struct LinearLoss {
  Tensor weights;

  explicit LinearLoss(const std::vector<std::size_t>& shape, Rng& rng)
      : weights(Tensor::randn(shape, rng, 1.0f)) {}

  [[nodiscard]] double value(const Tensor& out) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      sum += static_cast<double>(weights[i]) * out[i];
    }
    return sum;
  }
};

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  // Overwrite parameters with known values.
  Tensor* w = dense.parameters()[0];
  Tensor* b = dense.parameters()[1];
  (*w).at(0, 0) = 1.0f;
  (*w).at(0, 1) = 2.0f;
  (*w).at(1, 0) = 3.0f;
  (*w).at(1, 1) = 4.0f;
  (*b)[0] = 0.5f;
  (*b)[1] = -0.5f;
  Tensor x({1, 2});
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 2.0f;
  const Tensor y = dense.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 7.5f);   // 1*1 + 2*3 + 0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 9.5f);   // 1*2 + 2*4 - 0.5
}

TEST(Dense, GradientCheckParametersAndInput) {
  Rng rng(2);
  Dense dense(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng, 1.0f);
  LinearLoss loss({5, 3}, rng);

  const auto forward_loss = [&]() { return loss.value(dense.forward(x)); };

  dense.zero_gradients();
  (void)dense.forward(x);
  const Tensor grad_input = dense.backward(loss.weights);

  // Parameter gradients.
  for (std::size_t p = 0; p < dense.parameters().size(); ++p) {
    const double err = testing::max_gradient_error(
        *dense.parameters()[p], *dense.gradients()[p], forward_loss);
    EXPECT_LT(err, 5e-2) << "parameter " << p;
  }
  // Input gradient.
  const double err =
      testing::max_gradient_error(x, grad_input, forward_loss);
  EXPECT_LT(err, 5e-2);
}

TEST(Dense, GradientsAccumulateAcrossBackwardCalls) {
  Rng rng(3);
  Dense dense(2, 2, rng);
  Tensor x = Tensor::randn({1, 2}, rng, 1.0f);
  Tensor g({1, 2}, 1.0f);
  dense.zero_gradients();
  (void)dense.forward(x);
  (void)dense.backward(g);
  const float once = (*dense.gradients()[0])[0];
  (void)dense.forward(x);
  (void)dense.backward(g);
  EXPECT_FLOAT_EQ((*dense.gradients()[0])[0], 2.0f * once);
  dense.zero_gradients();
  EXPECT_FLOAT_EQ((*dense.gradients()[0])[0], 0.0f);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, GradientMasksNegativeInputs) {
  ReLU relu;
  Tensor x({1, 3});
  x[0] = -1.0f;
  x[1] = 3.0f;
  x[2] = -2.0f;
  (void)relu.forward(x);
  Tensor g({1, 3}, 1.0f);
  const Tensor gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
}

TEST(Layers, ShapeMismatchesThrow) {
  Rng rng(5);
  Dense dense(3, 2, rng);
  EXPECT_THROW((void)dense.forward(Tensor({1, 4})), std::invalid_argument);
  (void)dense.forward(Tensor({2, 3}));
  EXPECT_THROW((void)dense.backward(Tensor({2, 3})), std::invalid_argument);
}

}  // namespace
}  // namespace bofl::nn
