// Micro-benchmarks: Gaussian-process conditioning and prediction scaling.
// The MBO update refits two GPs and sweeps ~2100 candidates per greedy
// pick; these numbers justify the Fig. 13 cost model.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/hyperopt.hpp"

namespace {

using namespace bofl;

std::pair<std::vector<linalg::Vector>, std::vector<double>> make_data(
    std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < n; ++i) {
    linalg::Vector x{rng.uniform(), rng.uniform(), rng.uniform()};
    ys.push_back(std::sin(4.0 * x[0]) + 0.5 * x[1] * x[1] - x[2]);
    xs.push_back(std::move(x));
  }
  return {std::move(xs), std::move(ys)};
}

gp::Kernel default_kernel() {
  return {gp::KernelFamily::kMatern52, 1.0, {0.3, 0.3, 0.3}};
}

void BM_GpCondition(benchmark::State& state) {
  const auto [xs, ys] = make_data(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    gp::GaussianProcess model(default_kernel(), 1e-4);
    model.condition(xs, ys);
    benchmark::DoNotOptimize(model.num_observations());
  }
}
BENCHMARK(BM_GpCondition)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

void BM_GpPredict(benchmark::State& state) {
  const auto [xs, ys] = make_data(static_cast<std::size_t>(state.range(0)), 2);
  gp::GaussianProcess model(default_kernel(), 1e-4);
  model.condition(xs, ys);
  Rng rng(3);
  const linalg::Vector query{rng.uniform(), rng.uniform(), rng.uniform()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(query));
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(50)->Arg(100)->Arg(200);

void BM_GpCandidateSweep(benchmark::State& state) {
  // One full EHVI-style sweep: predict all 2100 AGX candidates.
  const auto [xs, ys] = make_data(70, 4);
  gp::GaussianProcess model(default_kernel(), 1e-4);
  model.condition(xs, ys);
  const auto [candidates, unused] = make_data(2100, 5);
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& c : candidates) {
      sum += model.predict(c).mean;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GpCandidateSweep);

void BM_GpHyperparameterFit(benchmark::State& state) {
  const auto [xs, ys] = make_data(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    Rng rng(7);
    gp::HyperoptOptions options;
    options.num_restarts = 2;
    options.max_iterations_per_start = 100;
    const gp::HyperoptProblem problem{gp::KernelFamily::kMatern52, xs, ys};
    benchmark::DoNotOptimize(
        gp::fit_hyperparameters({&problem, 1}, rng, options));
  }
}
BENCHMARK(BM_GpHyperparameterFit)->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace
