// Stochastic gradient descent with optional classical momentum.
#pragma once

#include "nn/model.hpp"

namespace bofl::nn {

class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate, double momentum = 0.0);

  /// Apply one update step: p -= lr * (momentum-filtered) g.
  /// Velocity buffers are allocated lazily and keyed by position, so the
  /// optimizer must always be used with the same model.
  void step(Sequential& model);

  [[nodiscard]] double learning_rate() const { return learning_rate_; }

 private:
  double learning_rate_;
  double momentum_;
  std::vector<Tensor> velocity_;
};

}  // namespace bofl::nn
