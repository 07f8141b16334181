#include "nn/model.hpp"

#include "common/error.hpp"

namespace bofl::nn {

void Sequential::add(std::unique_ptr<Layer> layer) {
  BOFL_REQUIRE(layer != nullptr, "cannot add a null layer");
  layers_.push_back(std::move(layer));
}

Tensor Sequential::forward(const Tensor& input) {
  BOFL_REQUIRE(!layers_.empty(), "empty model");
  Tensor activation = input;
  for (const auto& layer : layers_) {
    activation = layer->forward(activation);
  }
  return activation;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  BOFL_REQUIRE(!layers_.empty(), "empty model");
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

void Sequential::zero_gradients() {
  for (const auto& layer : layers_) {
    layer->zero_gradients();
  }
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> params;
  for (const auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> grads;
  for (const auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) {
      grads.push_back(g);
    }
  }
  return grads;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : parameters()) {
    n += p->size();
  }
  return n;
}

std::vector<float> Sequential::get_flat_parameters() {
  std::vector<float> flat;
  flat.reserve(num_parameters());
  for (Tensor* p : parameters()) {
    flat.insert(flat.end(), p->data(), p->data() + p->size());
  }
  return flat;
}

void Sequential::set_flat_parameters(const std::vector<float>& flat) {
  std::size_t offset = 0;
  for (Tensor* p : parameters()) {
    BOFL_REQUIRE(offset + p->size() <= flat.size(),
                 "flat parameter vector too short");
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + p->size()),
              p->data());
    offset += p->size();
  }
  BOFL_REQUIRE(offset == flat.size(), "flat parameter vector too long");
}

Sequential make_mlp_classifier(std::size_t input_features, std::size_t hidden,
                               std::size_t depth, std::size_t classes,
                               Rng& rng) {
  BOFL_REQUIRE(depth >= 1, "MLP needs at least one hidden layer");
  Sequential model;
  model.add(std::make_unique<Dense>(input_features, hidden, rng));
  model.add(std::make_unique<ReLU>());
  for (std::size_t d = 1; d < depth; ++d) {
    model.add(std::make_unique<Dense>(hidden, hidden, rng));
    model.add(std::make_unique<ReLU>());
  }
  model.add(std::make_unique<Dense>(hidden, classes, rng));
  return model;
}

}  // namespace bofl::nn
