// Federated-learning task specifications from the device's point of view
// (paper §3.1): a task is (B, E, T, N) — minibatch size, epochs per round,
// the per-round training deadlines, and the number of local minibatches.
// W = E · N jobs must finish before each round's deadline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/device_model.hpp"
#include "device/workload.hpp"

namespace bofl::core {

/// Task parameters as assigned by the FL server (Table 2).
struct FlTaskSpec {
  std::string name;
  device::WorkloadProfile profile;
  std::int64_t minibatch_size = 1;   ///< B (carried for reporting)
  std::int64_t epochs = 1;           ///< E
  std::int64_t num_minibatches = 1;  ///< N (device-dependent shard size)
  std::int64_t num_rounds = 100;     ///< |T|

  /// W = E · N: jobs per round.
  [[nodiscard]] std::int64_t jobs_per_round() const {
    return epochs * num_minibatches;
  }
};

/// One round as seen by a pace controller.
struct RoundSpec {
  std::int64_t index = 0;
  std::int64_t num_jobs = 0;
  Seconds deadline{0.0};
};

/// The paper's three tasks with the per-device N values of Table 2.
/// `device_name` is DeviceModel::name() ("jetson-agx" or "jetson-tx2").
[[nodiscard]] FlTaskSpec cifar10_vit_task(const std::string& device_name);
[[nodiscard]] FlTaskSpec imagenet_resnet50_task(const std::string& device_name);
[[nodiscard]] FlTaskSpec imdb_lstm_task(const std::string& device_name);
[[nodiscard]] std::vector<FlTaskSpec> paper_tasks(const std::string& device_name);

/// Samples round deadlines uniformly from [T_min, ratio · T_min], the
/// paper's §6.1 protocol.  T_min is the device's round time at x_max.
class DeadlineGenerator {
 public:
  DeadlineGenerator(Seconds t_min, double max_over_min_ratio,
                    std::uint64_t seed);

  [[nodiscard]] Seconds next();

 private:
  Seconds t_min_;
  double ratio_;
  Rng rng_;
};

/// Convenience: the full round list for a task on a device, with deadlines
/// sampled at the given T_max / T_min ratio.
[[nodiscard]] std::vector<RoundSpec> make_rounds(
    const FlTaskSpec& task, const device::DeviceModel& model,
    double max_over_min_ratio, std::uint64_t seed);

}  // namespace bofl::core
