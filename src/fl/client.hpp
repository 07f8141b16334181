// A federated-learning client: local data shard, local model replica, SGD
// training loop, and a pace controller deciding the DVFS configuration of
// every training job (the paper's Figure 8 "FL task executor" + BoFL).
//
// Learning and pacing are deliberately decoupled: gradients come from the
// nn substrate, time/energy from the device substrate via the controller.
// One local minibatch step == one "job" in the controller's accounting.
#pragma once

#include <functional>
#include <memory>

#include "core/pace_controller.hpp"
#include "nn/data.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/sgd.hpp"

namespace bofl::fl {

/// What a client reports back to the server after a round.
struct LocalUpdate {
  std::size_t client_id = 0;
  std::vector<float> parameters;   ///< locally trained weights
  std::int64_t num_examples = 0;   ///< FedAvg weight
  double mean_loss = 0.0;          ///< mean training loss over the round
  core::RoundTrace pace_trace;     ///< energy/latency record of the round
};

/// Builds a fresh (identically shaped) model replica.
using ModelFactory = std::function<nn::Sequential()>;

class Client {
 public:
  Client(std::size_t id, nn::Dataset shard, ModelFactory factory,
         double learning_rate, std::int64_t minibatch_size,
         std::unique_ptr<core::PaceController> controller);

  /// One FL round: load the global weights, run `epochs` epochs of
  /// minibatch SGD on the local shard, and account the round through the
  /// pace controller.
  [[nodiscard]] LocalUpdate train_round(const std::vector<float>& global,
                                        std::int64_t epochs,
                                        const core::RoundSpec& round);

  [[nodiscard]] std::size_t id() const { return id_; }
  [[nodiscard]] std::int64_t num_minibatches() const;

 private:
  std::size_t id_;
  nn::Dataset shard_;
  nn::Sequential model_;
  nn::SgdOptimizer optimizer_;
  std::int64_t minibatch_size_;
  std::unique_ptr<core::PaceController> controller_;
};

/// Mean loss and accuracy of `model` on `data`, evaluated in minibatches.
struct Evaluation {
  double loss = 0.0;
  double accuracy = 0.0;
};
[[nodiscard]] Evaluation evaluate(nn::Sequential& model,
                                  const nn::Dataset& data,
                                  std::int64_t minibatch_size);

}  // namespace bofl::fl
