#include "core/task.hpp"

#include <gtest/gtest.h>

namespace bofl::core {
namespace {

TEST(TaskSpecs, Table2Parameters) {
  const FlTaskSpec vit = cifar10_vit_task("jetson-agx");
  EXPECT_EQ(vit.minibatch_size, 32);
  EXPECT_EQ(vit.epochs, 5);
  EXPECT_EQ(vit.num_minibatches, 40);
  EXPECT_EQ(vit.jobs_per_round(), 200);
  EXPECT_EQ(vit.num_rounds, 100);

  const FlTaskSpec resnet = imagenet_resnet50_task("jetson-agx");
  EXPECT_EQ(resnet.minibatch_size, 8);
  EXPECT_EQ(resnet.epochs, 2);
  EXPECT_EQ(resnet.num_minibatches, 90);
  EXPECT_EQ(resnet.jobs_per_round(), 180);

  const FlTaskSpec lstm = imdb_lstm_task("jetson-agx");
  EXPECT_EQ(lstm.epochs, 4);
  EXPECT_EQ(lstm.num_minibatches, 40);
  EXPECT_EQ(lstm.jobs_per_round(), 160);
}

TEST(TaskSpecs, Tx2ShardSizes) {
  EXPECT_EQ(cifar10_vit_task("jetson-tx2").num_minibatches, 15);
  EXPECT_EQ(imagenet_resnet50_task("jetson-tx2").num_minibatches, 30);
  EXPECT_EQ(imdb_lstm_task("jetson-tx2").num_minibatches, 20);
}

TEST(TaskSpecs, UnknownDeviceRejected) {
  EXPECT_THROW((void)cifar10_vit_task("toaster"), std::invalid_argument);
}

TEST(TaskSpecs, PaperTasksInOrder) {
  const auto tasks = paper_tasks("jetson-agx");
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].name, "CIFAR10-ViT");
  EXPECT_EQ(tasks[1].name, "ImageNet-ResNet50");
  EXPECT_EQ(tasks[2].name, "IMDB-LSTM");
}

TEST(DeadlineGenerator, SamplesWithinRange) {
  DeadlineGenerator gen(Seconds{10.0}, 3.0, 42);
  for (int i = 0; i < 1000; ++i) {
    const Seconds d = gen.next();
    EXPECT_GE(d.value(), 10.0);
    EXPECT_LE(d.value(), 30.0);
  }
}

TEST(DeadlineGenerator, RatioOneIsDegenerate) {
  DeadlineGenerator gen(Seconds{10.0}, 1.0, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(gen.next().value(), 10.0);
  }
}

TEST(DeadlineGenerator, DeterministicBySeed) {
  DeadlineGenerator a(Seconds{10.0}, 2.0, 7);
  DeadlineGenerator b(Seconds{10.0}, 2.0, 7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.next().value(), b.next().value());
  }
}

TEST(DeadlineGenerator, RejectsInvalidArguments) {
  EXPECT_THROW(DeadlineGenerator(Seconds{0.0}, 2.0, 1),
               std::invalid_argument);
  EXPECT_THROW(DeadlineGenerator(Seconds{1.0}, 0.5, 1),
               std::invalid_argument);
}

TEST(MakeRounds, ProducesFeasibleRoundList) {
  const device::DeviceModel agx = device::jetson_agx();
  const FlTaskSpec task = cifar10_vit_task(agx.name());
  const auto rounds = make_rounds(task, agx, 2.0, 9);
  ASSERT_EQ(rounds.size(), 100u);
  const double t_min =
      agx.round_t_min(task.profile, task.jobs_per_round()).value();
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].index, static_cast<std::int64_t>(i));
    EXPECT_EQ(rounds[i].num_jobs, task.jobs_per_round());
    EXPECT_GE(rounds[i].deadline.value(), t_min - 1e-9);
    EXPECT_LE(rounds[i].deadline.value(), 2.0 * t_min + 1e-9);
  }
}

}  // namespace
}  // namespace bofl::core
