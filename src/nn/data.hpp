// Synthetic datasets standing in for CIFAR10 / ImageNet / IMDB.
//
// The real datasets are not available offline; these generators produce
// classification problems with the same *roles*: a learnable structure
// (class-dependent Gaussian prototypes, or class-dependent sequence
// drift for the sentiment task) plus noise, so FedAvg demonstrably reduces
// loss and improves accuracy across rounds.  Each client shards the stream
// by seed, giving non-identical local distributions.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace bofl::nn {

/// A supervised dataset: features plus one integer label per example.
/// Features are rank-2 (n, d) for tabular/image-like data or rank-3
/// (n, time, d) for sequence data.
struct Dataset {
  Tensor features;
  std::vector<std::int64_t> labels;

  [[nodiscard]] std::size_t size() const { return labels.size(); }

  /// Copy rows [begin, begin+count) into a new dataset (a minibatch).
  [[nodiscard]] Dataset slice(std::size_t begin, std::size_t count) const;
};

/// Gaussian-prototype classification: `classes` prototypes in d dimensions,
/// examples = prototype + noise.  `class_skew` biases the label marginal
/// (Dirichlet-style) to model non-IID client shards.
[[nodiscard]] Dataset make_classification(std::size_t n, std::size_t dim,
                                          std::size_t classes,
                                          std::uint64_t seed,
                                          double noise = 0.8,
                                          double class_skew = 0.0);

}  // namespace bofl::nn
