// The FL central server (paper Figure 1): holds the global model, selects
// participants each round, assigns deadlines, and aggregates local updates
// with FedAvg (example-count weighted averaging).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "fl/client.hpp"

namespace bofl::fl {

class FedAvgServer {
 public:
  explicit FedAvgServer(std::vector<float> initial_parameters);

  [[nodiscard]] const std::vector<float>& parameters() const {
    return parameters_;
  }

  /// Select `count` distinct participants out of `pool_size` clients.
  [[nodiscard]] std::vector<std::size_t> select_participants(
      std::size_t pool_size, std::size_t count, Rng& rng) const;

  /// FedAvg: parameters <- sum_i w_i * params_i / sum_i w_i,
  /// w_i = num_examples.  Updates from clients that missed their training
  /// deadline are dropped (the paper's workflow, Figure 1 step 3).
  /// Returns the number of accepted updates.
  std::size_t aggregate(const std::vector<LocalUpdate>& updates);

 private:
  std::vector<float> parameters_;
};

}  // namespace bofl::fl
