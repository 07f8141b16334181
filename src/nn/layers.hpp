// Neural-network layers with explicit forward/backward passes.
//
// Layers cache whatever the backward pass needs from the most recent
// forward call (single-threaded, one batch in flight — the FL executor's
// usage pattern).  Parameters and their gradients are exposed as parallel
// lists so the SGD optimizer and the FedAvg aggregator can treat every
// model as a flat parameter vector.
#pragma once

#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace bofl::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; caches activations for backward.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: takes dLoss/dOutput, accumulates parameter gradients,
  /// returns dLoss/dInput.  Must be preceded by forward().
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (may be empty).
  virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradients, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  /// Zero all parameter gradients.
  void zero_gradients();
};

/// Fully connected layer: y = x W + b, x: (batch, in), W: (in, out).
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> parameters() override;
  std::vector<Tensor*> gradients() override;

  [[nodiscard]] const Tensor& weight() const { return weight_; }
  [[nodiscard]] const Tensor& bias() const { return bias_; }

 private:
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;
};

/// Rectified linear unit.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

 private:
  Tensor cached_input_;
};

}  // namespace bofl::nn
