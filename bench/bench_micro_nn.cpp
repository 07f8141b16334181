// Micro-benchmarks: the nn substrate's layer throughput.  These bound how
// much wall-clock the FL simulation spends on actual gradient math (the
// simulated devices account energy/time separately).
#include <benchmark/benchmark.h>

#include "nn/data.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/sgd.hpp"

namespace {

using namespace bofl;
using namespace bofl::nn;

void BM_DenseForwardBackward(benchmark::State& state) {
  Rng rng(1);
  const auto width = static_cast<std::size_t>(state.range(0));
  Dense dense(width, width, rng);
  const Tensor x = Tensor::randn({32, width}, rng, 1.0f);
  const Tensor g = Tensor::randn({32, width}, rng, 1.0f);
  for (auto _ : state) {
    dense.zero_gradients();
    benchmark::DoNotOptimize(dense.forward(x));
    benchmark::DoNotOptimize(dense.backward(g));
  }
}
BENCHMARK(BM_DenseForwardBackward)->Arg(32)->Arg(128)->Arg(512);

void BM_LstmForwardBackward(benchmark::State& state) {
  Rng rng(3);
  LstmCell lstm(8, 32, rng);
  const auto time = static_cast<std::size_t>(state.range(0));
  const Tensor x = Tensor::randn({16, time, 8}, rng, 1.0f);
  const Tensor g = Tensor::randn({16, 32}, rng, 1.0f);
  for (auto _ : state) {
    lstm.zero_gradients();
    benchmark::DoNotOptimize(lstm.forward(x));
    benchmark::DoNotOptimize(lstm.backward(g));
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_FullTrainingStepMlp(benchmark::State& state) {
  Rng rng(4);
  Sequential model = make_mlp_classifier(16, 32, 2, 8, rng);
  const Dataset batch = make_classification(16, 16, 8, 5);
  SgdOptimizer optimizer(0.05, 0.9);
  SoftmaxCrossEntropy loss;
  for (auto _ : state) {
    model.zero_gradients();
    benchmark::DoNotOptimize(loss.forward(model.forward(batch.features),
                                          batch.labels));
    model.backward(loss.backward());
    optimizer.step(model);
  }
}
BENCHMARK(BM_FullTrainingStepMlp)->Unit(benchmark::kMicrosecond);

void BM_FedAvgParameterRoundTrip(benchmark::State& state) {
  Rng rng(6);
  Sequential model = make_mlp_classifier(64, 128, 3, 16, rng);
  for (auto _ : state) {
    auto flat = model.get_flat_parameters();
    benchmark::DoNotOptimize(flat.data());
    model.set_flat_parameters(flat);
  }
}
BENCHMARK(BM_FedAvgParameterRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace
