#include "nn/data.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bofl::nn {

Dataset Dataset::slice(std::size_t begin, std::size_t count) const {
  BOFL_REQUIRE(begin + count <= size(), "dataset slice out of range");
  Dataset out;
  out.labels.assign(labels.begin() + static_cast<std::ptrdiff_t>(begin),
                    labels.begin() + static_cast<std::ptrdiff_t>(begin + count));
  std::vector<std::size_t> shape = features.shape();
  shape[0] = count;
  out.features = Tensor(shape);
  const std::size_t row = features.size() / features.dim(0);
  std::copy(features.data() + begin * row,
            features.data() + (begin + count) * row, out.features.data());
  return out;
}

Dataset make_classification(std::size_t n, std::size_t dim,
                            std::size_t classes, std::uint64_t seed,
                            double noise, double class_skew) {
  BOFL_REQUIRE(n > 0 && dim > 0 && classes >= 2, "degenerate dataset shape");
  BOFL_REQUIRE(noise >= 0.0 && class_skew >= 0.0, "negative noise parameters");
  Rng rng(seed);
  // Prototypes are shared across shards (fixed seed) so that federated
  // clients learn the same underlying concept.
  Rng proto_rng(0xB0F1DA7AULL + classes * 131 + dim);
  std::vector<std::vector<float>> prototypes(classes,
                                             std::vector<float>(dim));
  for (auto& proto : prototypes) {
    for (float& v : proto) {
      v = static_cast<float>(proto_rng.normal(0.0, 1.0));
    }
  }
  // Class marginal: skew 0 = uniform; larger skew concentrates mass on a
  // shard-specific preferred class (non-IID federated shards).
  std::vector<double> weights(classes, 1.0);
  if (class_skew > 0.0) {
    weights[rng.uniform_index(classes)] += class_skew * static_cast<double>(classes);
  }
  double total_weight = 0.0;
  for (double w : weights) {
    total_weight += w;
  }

  Dataset ds;
  ds.features = Tensor({n, dim});
  ds.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double pick = rng.uniform() * total_weight;
    std::size_t label = 0;
    while (label + 1 < classes && pick > weights[label]) {
      pick -= weights[label];
      ++label;
    }
    ds.labels[i] = static_cast<std::int64_t>(label);
    for (std::size_t d = 0; d < dim; ++d) {
      ds.features.at(i, d) =
          prototypes[label][d] +
          static_cast<float>(rng.normal(0.0, noise));
    }
  }
  return ds;
}

}  // namespace bofl::nn
