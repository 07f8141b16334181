#include "nn/layers.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bofl::nn {

void Layer::zero_gradients() {
  for (Tensor* g : gradients()) {
    g->fill(0.0f);
  }
}

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    // He-style initialization scaled for the ReLU stacks we build.
    : weight_(Tensor::randn(
          {in_features, out_features}, rng,
          static_cast<float>(std::sqrt(2.0 / static_cast<double>(in_features))))),
      bias_(Tensor::zeros({out_features})),
      grad_weight_(Tensor::zeros({in_features, out_features})),
      grad_bias_(Tensor::zeros({out_features})) {}

Tensor Dense::forward(const Tensor& input) {
  BOFL_REQUIRE(input.rank() == 2 && input.dim(1) == weight_.dim(0),
               "Dense forward shape mismatch");
  cached_input_ = input;
  Tensor out = matmul(input, weight_);
  for (std::size_t r = 0; r < out.dim(0); ++r) {
    for (std::size_t c = 0; c < out.dim(1); ++c) {
      out.at(r, c) += bias_[c];
    }
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  BOFL_REQUIRE(grad_output.rank() == 2 &&
                   grad_output.dim(1) == weight_.dim(1) &&
                   grad_output.dim(0) == cached_input_.dim(0),
               "Dense backward shape mismatch");
  // dW += x^T g;  db += column sums of g;  dx = g W^T.
  grad_weight_.add_scaled(matmul_transposed_a(cached_input_, grad_output),
                          1.0f);
  for (std::size_t r = 0; r < grad_output.dim(0); ++r) {
    for (std::size_t c = 0; c < grad_output.dim(1); ++c) {
      grad_bias_[c] += grad_output.at(r, c);
    }
  }
  return matmul_transposed_b(grad_output, weight_);
}

std::vector<Tensor*> Dense::parameters() { return {&weight_, &bias_}; }
std::vector<Tensor*> Dense::gradients() {
  return {&grad_weight_, &grad_bias_};
}

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] < 0.0f) {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  BOFL_REQUIRE(grad_output.shape() == cached_input_.shape(),
               "ReLU backward shape mismatch");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (cached_input_[i] <= 0.0f) {
      grad[i] = 0.0f;
    }
  }
  return grad;
}

}  // namespace bofl::nn
