// End-to-end learning tests for the nn substrate: models must actually fit
// the synthetic datasets they were built for.
#include <gtest/gtest.h>

#include "nn/data.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/sgd.hpp"

namespace bofl::nn {
namespace {

double train_epochs(Sequential& model, const Dataset& data,
                    std::int64_t batch, int epochs, double lr) {
  SgdOptimizer optimizer(lr, 0.9);
  SoftmaxCrossEntropy loss;
  double last_epoch_loss = 0.0;
  const std::size_t batches = data.size() / static_cast<std::size_t>(batch);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    last_epoch_loss = 0.0;
    for (std::size_t b = 0; b < batches; ++b) {
      const Dataset mini = data.slice(b * batch, batch);
      model.zero_gradients();
      const Tensor logits = model.forward(mini.features);
      last_epoch_loss += loss.forward(logits, mini.labels);
      model.backward(loss.backward());
      optimizer.step(model);
    }
    last_epoch_loss /= static_cast<double>(batches);
  }
  return last_epoch_loss;
}

double eval_accuracy(Sequential& model, const Dataset& data,
                     std::int64_t batch) {
  SoftmaxCrossEntropy loss;
  double acc = 0.0;
  const std::size_t batches = data.size() / static_cast<std::size_t>(batch);
  for (std::size_t b = 0; b < batches; ++b) {
    const Dataset mini = data.slice(b * batch, batch);
    (void)loss.forward(model.forward(mini.features), mini.labels);
    acc += accuracy(loss.predictions(), mini.labels);
  }
  return acc / static_cast<double>(batches);
}

TEST(Training, MlpLearnsGaussianBlobs) {
  Rng rng(17);
  Sequential model = make_mlp_classifier(8, 24, 2, 5, rng);
  const Dataset train = make_classification(400, 8, 5, 1001, 0.5);
  const Dataset test = make_classification(200, 8, 5, 2002, 0.5);

  const double before = eval_accuracy(model, test, 20);
  const double final_loss = train_epochs(model, train, 20, 25, 0.05);
  const double after = eval_accuracy(model, test, 20);

  EXPECT_LT(final_loss, 0.6);
  EXPECT_GT(after, before + 0.3);
  EXPECT_GT(after, 0.8);
}

TEST(Training, LossDecreasesMonotonicallyOnAverage) {
  Rng rng(23);
  Sequential model = make_mlp_classifier(6, 16, 1, 4, rng);
  const Dataset train = make_classification(200, 6, 4, 5005, 0.6);
  const double first = train_epochs(model, train, 20, 1, 0.05);
  const double later = train_epochs(model, train, 20, 10, 0.05);
  EXPECT_LT(later, first);
}

TEST(Training, FlatParameterRoundTrip) {
  Rng rng(29);
  Sequential a = make_mlp_classifier(5, 10, 2, 3, rng);
  Rng rng2(31);
  Sequential b = make_mlp_classifier(5, 10, 2, 3, rng2);
  const std::vector<float> params = a.get_flat_parameters();
  EXPECT_EQ(params.size(), a.num_parameters());
  b.set_flat_parameters(params);
  EXPECT_EQ(b.get_flat_parameters(), params);
  // Same parameters -> identical outputs.
  Rng rng3(37);
  const Tensor x = Tensor::randn({4, 5}, rng3, 1.0f);
  const Tensor ya = a.forward(x);
  const Tensor yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_FLOAT_EQ(ya[i], yb[i]);
  }
}

TEST(Training, SetFlatParametersValidatesLength) {
  Rng rng(41);
  Sequential model = make_mlp_classifier(5, 10, 1, 3, rng);
  std::vector<float> tooShort(model.num_parameters() - 1, 0.0f);
  EXPECT_THROW(model.set_flat_parameters(tooShort), std::invalid_argument);
  std::vector<float> tooLong(model.num_parameters() + 1, 0.0f);
  EXPECT_THROW(model.set_flat_parameters(tooLong), std::invalid_argument);
}

TEST(Sgd, MomentumAcceleratesOnQuadratic) {
  // Minimal check of the optimizer math on a single Dense layer pulled
  // toward zero output: with momentum the parameter norm shrinks faster.
  const auto run = [](double momentum) {
    Rng rng(43);
    Sequential model;
    model.add(std::make_unique<Dense>(2, 2, rng));
    SgdOptimizer optimizer(0.05, momentum);
    Rng data_rng(47);
    const Tensor x = Tensor::randn({8, 2}, data_rng, 1.0f);
    SoftmaxCrossEntropy loss;
    for (int step = 0; step < 30; ++step) {
      model.zero_gradients();
      const Tensor y = model.forward(x);
      (void)loss.forward(y, std::vector<std::int64_t>(8, 0));
      model.backward(loss.backward());
      optimizer.step(model);
    }
    const Tensor final_logits = model.forward(x);
    double class0_margin = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      class0_margin += final_logits.at(r, 0) - final_logits.at(r, 1);
    }
    return class0_margin;
  };
  EXPECT_GT(run(0.9), run(0.0));
}

TEST(Sgd, RejectsInvalidHyperparameters) {
  EXPECT_THROW(SgdOptimizer(0.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(0.1, -0.1), std::invalid_argument);
}

TEST(Data, SliceExtractsRows) {
  const Dataset ds = make_classification(20, 4, 3, 7007);
  const Dataset slice = ds.slice(5, 10);
  EXPECT_EQ(slice.size(), 10u);
  EXPECT_EQ(slice.features.dim(0), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(slice.labels[i], ds.labels[5 + i]);
    for (std::size_t d = 0; d < 4; ++d) {
      EXPECT_FLOAT_EQ(slice.features.at(i, d), ds.features.at(5 + i, d));
    }
  }
  EXPECT_THROW((void)ds.slice(15, 10), std::invalid_argument);
}

TEST(Data, ShardsShareConcept) {
  // Two shards from different seeds draw from the same class prototypes: a
  // model trained on shard A transfers to shard B.
  Rng rng(53);
  Sequential model = make_mlp_classifier(8, 24, 2, 5, rng);
  const Dataset shard_a = make_classification(400, 8, 5, 111, 0.5);
  const Dataset shard_b = make_classification(200, 8, 5, 222, 0.5);
  (void)train_epochs(model, shard_a, 20, 20, 0.05);
  EXPECT_GT(eval_accuracy(model, shard_b, 20), 0.75);
}

TEST(Data, SkewBiasesLabelMarginal) {
  const Dataset skewed = make_classification(600, 4, 4, 888, 0.5, 5.0);
  std::vector<int> counts(4, 0);
  for (const auto label : skewed.labels) {
    counts[static_cast<std::size_t>(label)]++;
  }
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, 300);  // one class clearly dominates
}

}  // namespace
}  // namespace bofl::nn
