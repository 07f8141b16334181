#include "fl/server.hpp"

#include "common/error.hpp"

namespace bofl::fl {

FedAvgServer::FedAvgServer(std::vector<float> initial_parameters)
    : parameters_(std::move(initial_parameters)) {
  BOFL_REQUIRE(!parameters_.empty(), "server needs a non-empty model");
}

std::vector<std::size_t> FedAvgServer::select_participants(
    std::size_t pool_size, std::size_t count, Rng& rng) const {
  BOFL_REQUIRE(count > 0 && count <= pool_size,
               "participant count must be in [1, pool size]");
  return rng.sample_without_replacement(pool_size, count);
}

std::size_t FedAvgServer::aggregate(const std::vector<LocalUpdate>& updates) {
  std::vector<double> accumulator(parameters_.size(), 0.0);
  double total_weight = 0.0;
  std::size_t accepted = 0;
  for (const LocalUpdate& update : updates) {
    if (!update.pace_trace.deadline_met()) {
      continue;  // straggler: the server has already moved on
    }
    BOFL_REQUIRE(update.parameters.size() == parameters_.size(),
                 "update size does not match the global model");
    const auto weight = static_cast<double>(update.num_examples);
    for (std::size_t i = 0; i < accumulator.size(); ++i) {
      accumulator[i] += weight * static_cast<double>(update.parameters[i]);
    }
    total_weight += weight;
    ++accepted;
  }
  if (accepted == 0) {
    return 0;  // nothing landed in time; keep the current global model
  }
  for (std::size_t i = 0; i < parameters_.size(); ++i) {
    parameters_[i] = static_cast<float>(accumulator[i] / total_weight);
  }
  return accepted;
}

}  // namespace bofl::fl
