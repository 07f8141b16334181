#include "nn/sgd.hpp"

#include "common/error.hpp"

namespace bofl::nn {

SgdOptimizer::SgdOptimizer(double learning_rate, double momentum)
    : learning_rate_(learning_rate), momentum_(momentum) {
  BOFL_REQUIRE(learning_rate > 0.0, "learning rate must be positive");
  BOFL_REQUIRE(momentum >= 0.0 && momentum < 1.0, "momentum must be in [0,1)");
}

void SgdOptimizer::step(Sequential& model) {
  const std::vector<Tensor*> params = model.parameters();
  const std::vector<Tensor*> grads = model.gradients();
  BOFL_ASSERT(params.size() == grads.size(),
              "parameter/gradient list mismatch");
  if (momentum_ == 0.0) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->add_scaled(*grads[i],
                            static_cast<float>(-learning_rate_));
    }
    return;
  }
  if (velocity_.empty()) {
    for (Tensor* p : params) {
      velocity_.emplace_back(Tensor::zeros(p->shape()));
    }
  }
  BOFL_REQUIRE(velocity_.size() == params.size(),
               "optimizer bound to a different model");
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& v = velocity_[i];
    // v = momentum * v + g;  p -= lr * v
    for (std::size_t j = 0; j < v.size(); ++j) {
      v[j] = static_cast<float>(momentum_) * v[j] + (*grads[i])[j];
    }
    params[i]->add_scaled(v, static_cast<float>(-learning_rate_));
  }
}

}  // namespace bofl::nn
