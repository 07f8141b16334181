// Sequential model container and the model zoo used by the FL tasks.
//
// The zoo's "proxy" models are intentionally small stand-ins for ViT /
// ResNet50 / LSTM: the pace controller never inspects the network, it only
// needs the FL substrate to run real SGD (see DESIGN.md §2).  The LSTM
// proxy genuinely recurs over a sequence.
#pragma once

#include <memory>
#include <string>

#include "nn/layers.hpp"

namespace bofl::nn {

class Sequential {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer);

  [[nodiscard]] Tensor forward(const Tensor& input);
  /// Backpropagate through all layers; returns dLoss/dInput.
  Tensor backward(const Tensor& grad_output);

  void zero_gradients();

  [[nodiscard]] std::vector<Tensor*> parameters();
  [[nodiscard]] std::vector<Tensor*> gradients();

  /// Total number of scalar parameters.
  [[nodiscard]] std::size_t num_parameters();

  /// Flatten all parameters into one vector (FedAvg wire format).
  [[nodiscard]] std::vector<float> get_flat_parameters();
  /// Load parameters from the flat wire format; sizes must match.
  void set_flat_parameters(const std::vector<float>& flat);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// MLP classifier: input -> hidden (ReLU) x depth -> classes.
[[nodiscard]] Sequential make_mlp_classifier(std::size_t input_features,
                                             std::size_t hidden,
                                             std::size_t depth,
                                             std::size_t classes, Rng& rng);

}  // namespace bofl::nn
