#include "core/task.hpp"

#include "common/error.hpp"

namespace bofl::core {

namespace {

std::int64_t shard_size(const std::string& device_name, std::int64_t agx,
                        std::int64_t tx2) {
  if (device_name == "jetson-agx") {
    return agx;
  }
  if (device_name == "jetson-tx2") {
    return tx2;
  }
  BOFL_REQUIRE(false, "unknown device name: " + device_name);
  return 0;
}

}  // namespace

FlTaskSpec cifar10_vit_task(const std::string& device_name) {
  FlTaskSpec task;
  task.name = "CIFAR10-ViT";
  task.profile = device::vit_profile();
  task.minibatch_size = 32;
  task.epochs = 5;
  task.num_minibatches = shard_size(device_name, 40, 15);
  return task;
}

FlTaskSpec imagenet_resnet50_task(const std::string& device_name) {
  FlTaskSpec task;
  task.name = "ImageNet-ResNet50";
  task.profile = device::resnet50_profile();
  task.minibatch_size = 8;
  task.epochs = 2;
  task.num_minibatches = shard_size(device_name, 90, 30);
  return task;
}

FlTaskSpec imdb_lstm_task(const std::string& device_name) {
  FlTaskSpec task;
  task.name = "IMDB-LSTM";
  task.profile = device::lstm_profile();
  task.minibatch_size = 8;
  task.epochs = 4;
  task.num_minibatches = shard_size(device_name, 40, 20);
  return task;
}

std::vector<FlTaskSpec> paper_tasks(const std::string& device_name) {
  return {cifar10_vit_task(device_name), imagenet_resnet50_task(device_name),
          imdb_lstm_task(device_name)};
}

DeadlineGenerator::DeadlineGenerator(Seconds t_min, double max_over_min_ratio,
                                     std::uint64_t seed)
    : t_min_(t_min), ratio_(max_over_min_ratio), rng_(seed) {
  BOFL_REQUIRE(t_min.value() > 0.0, "T_min must be positive");
  BOFL_REQUIRE(max_over_min_ratio >= 1.0, "T_max/T_min must be >= 1");
}

Seconds DeadlineGenerator::next() {
  return Seconds{rng_.uniform(t_min_.value(), t_min_.value() * ratio_)};
}

std::vector<RoundSpec> make_rounds(const FlTaskSpec& task,
                                   const device::DeviceModel& model,
                                   double max_over_min_ratio,
                                   std::uint64_t seed) {
  BOFL_REQUIRE(task.num_rounds >= 0, "round count must be >= 0");
  const Seconds t_min =
      model.round_t_min(task.profile, task.jobs_per_round());
  DeadlineGenerator generator(t_min, max_over_min_ratio, seed);
  std::vector<RoundSpec> rounds;
  rounds.reserve(static_cast<std::size_t>(task.num_rounds));
  for (std::int64_t i = 0; i < task.num_rounds; ++i) {
    rounds.push_back({i, task.jobs_per_round(), generator.next()});
  }
  return rounds;
}

}  // namespace bofl::core
