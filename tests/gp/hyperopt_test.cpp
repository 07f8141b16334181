#include "gp/hyperopt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace bofl::gp {
namespace {

/// Synthetic data: smooth 1-D function with small noise.
void make_data(std::vector<linalg::Vector>& xs, std::vector<double>& ys,
               std::size_t n, Rng& rng) {
  xs.clear();
  ys.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n - 1);
    xs.push_back({x});
    ys.push_back(std::sin(5.0 * x) + rng.normal(0.0, 0.05));
  }
}

/// One Matérn-5/2 fit, run serially.
HyperoptResult fit_one(const std::vector<linalg::Vector>& xs,
                       const std::vector<double>& ys, Rng& rng,
                       const HyperoptResult* warm_start = nullptr) {
  const HyperoptProblem problem{KernelFamily::kMatern52, xs, ys, warm_start};
  return fit_hyperparameters({&problem, 1}, rng).front();
}

TEST(Hyperopt, ImprovesOverDefaultHyperparameters) {
  Rng rng(21);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 25, rng);

  GaussianProcess default_gp(Kernel(KernelFamily::kMatern52, 1.0, {0.05}),
                             0.5);
  default_gp.condition(xs, ys);

  Rng opt_rng(22);
  const HyperoptResult fit =
      fit_one(xs, ys, opt_rng);
  EXPECT_GT(fit.log_marginal_likelihood,
            default_gp.log_marginal_likelihood());
}

TEST(Hyperopt, RecoversSaneLengthscale) {
  Rng rng(23);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 30, rng);
  Rng opt_rng(24);
  const HyperoptResult fit =
      fit_one(xs, ys, opt_rng);
  // sin(5x) on [0,1] has a correlation length of roughly 0.1-1.
  EXPECT_GT(fit.kernel.lengthscales()[0], 0.02);
  EXPECT_LT(fit.kernel.lengthscales()[0], 3.0);
  EXPECT_GT(fit.noise_variance, 0.0);
  EXPECT_LT(fit.noise_variance, 0.5);
}

TEST(Hyperopt, FittedModelPredictsHeldOutPoints) {
  Rng rng(25);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 30, rng);
  Rng opt_rng(26);
  const HyperoptResult fit =
      fit_one(xs, ys, opt_rng);
  GaussianProcess gp(fit.kernel, fit.noise_variance);
  gp.condition(xs, ys);
  double max_error = 0.0;
  for (double x = 0.05; x < 1.0; x += 0.1) {
    max_error = std::max(max_error,
                         std::abs(gp.predict({x}).mean - std::sin(5.0 * x)));
  }
  EXPECT_LT(max_error, 0.25);
}

// The lengthscale is clamped to [0.02, 10]: a straight line pulls it up to
// the upper bound, and a wave of period 0.01 sampled every 0.002 pulls it
// down to the lower one.
TEST(Hyperopt, RespectsBounds) {
  std::vector<linalg::Vector> line_xs;
  std::vector<double> line;
  std::vector<linalg::Vector> wave_xs;
  std::vector<double> wave;
  for (std::size_t i = 0; i < 30; ++i) {
    const double x = static_cast<double>(i) / 29.0;
    line_xs.push_back({x});
    line.push_back(x);
    wave_xs.push_back({0.002 * static_cast<double>(i)});
    wave.push_back(std::sin(200.0 * M_PI * wave_xs.back()[0]));
  }
  Rng opt_rng(28);
  const HyperoptResult up = fit_one(line_xs, line, opt_rng);
  const HyperoptResult down = fit_one(wave_xs, wave, opt_rng);
  EXPECT_EQ(up.kernel.lengthscales()[0], 10.0);
  EXPECT_EQ(down.kernel.lengthscales()[0], 0.02);
}

TEST(Hyperopt, WorksWithTinyDatasets) {
  const std::vector<linalg::Vector> xs{{0.2}, {0.5}, {0.8}};
  const std::vector<double> ys{0.1, 0.9, 0.2};
  Rng opt_rng(29);
  const HyperoptResult fit =
      fit_one(xs, ys, opt_rng);
  EXPECT_TRUE(std::isfinite(fit.log_marginal_likelihood));
}

TEST(Hyperopt, RejectsEmptyData) {
  Rng opt_rng(30);
  EXPECT_THROW((void)fit_one({}, {}, opt_rng),
               std::invalid_argument);
}

// A warm-started refit polishing the previous optimum on the same data must
// not lose likelihood relative to the full multi-restart search (Nelder-Mead
// keeps its best vertex, and it starts at the full search's answer).
TEST(Hyperopt, WarmStartKeepsLikelihoodOnSameData) {
  Rng rng(31);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 25, rng);
  Rng opt_rng(32);
  const HyperoptResult full =
      fit_one(xs, ys, opt_rng);
  const HyperoptResult warm = fit_one(xs, ys, opt_rng, &full);
  EXPECT_GE(warm.log_marginal_likelihood,
            full.log_marginal_likelihood - 1e-9);
}

// The warm path draws nothing from the RNG: the result is a pure function
// of (data, warm start), and the caller's stream is left untouched.
TEST(Hyperopt, WarmStartIsDeterministicAndSkipsRng) {
  Rng rng(33);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 20, rng);
  Rng opt_rng(34);
  const HyperoptResult full =
      fit_one(xs, ys, opt_rng);
  Rng a(1);
  Rng b(2);
  const HyperoptResult wa = fit_one(xs, ys, a, &full);
  const HyperoptResult wb = fit_one(xs, ys, b, &full);
  EXPECT_EQ(wa.log_marginal_likelihood, wb.log_marginal_likelihood);
  EXPECT_EQ(wa.noise_variance, wb.noise_variance);
  EXPECT_EQ(wa.kernel.lengthscales(), wb.kernel.lengthscales());
  EXPECT_EQ(a.uniform(), Rng(1).uniform());  // stream position untouched
}

// Warm refits still track the optimum after the data grows, staying ahead
// of the stale hyperparameters they started from.
TEST(Hyperopt, WarmStartTracksGrowingData) {
  Rng rng(35);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 15, rng);
  Rng opt_rng(36);
  const HyperoptResult early =
      fit_one(xs, ys, opt_rng);
  make_data(xs, ys, 30, rng);
  const HyperoptResult warm = fit_one(xs, ys, opt_rng, &early);
  GaussianProcess stale(early.kernel, early.noise_variance);
  stale.condition(xs, ys);
  EXPECT_GE(warm.log_marginal_likelihood,
            stale.log_marginal_likelihood() - 1e-9);
}

TEST(Hyperopt, WarmStartRejectsMismatchedDimension) {
  Rng rng(37);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  make_data(xs, ys, 10, rng);
  const HyperoptResult wrong_dim{
      Kernel(KernelFamily::kMatern52, 1.0, {0.3, 0.3}), 1e-4, 0.0};
  Rng opt_rng(38);
  EXPECT_THROW((void)fit_one(xs, ys, opt_rng, &wrong_dim),
               std::invalid_argument);
}

/// The MBO engine's shape: two objectives over one set of 2-D inputs.
struct TwoObjectives {
  std::vector<linalg::Vector> xs;
  std::vector<double> t;
  std::vector<double> e;
};

TwoObjectives make_two_objectives(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  TwoObjectives data;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform();
    data.xs.push_back({a, b});
    data.t.push_back(std::sin(4.0 * a) - b + rng.normal(0.0, 0.05));
    data.e.push_back(a * b + std::cos(3.0 * b) + rng.normal(0.0, 0.05));
  }
  return data;
}

void expect_bitwise_equal(const HyperoptResult& a, const HyperoptResult& b) {
  EXPECT_EQ(a.kernel.lengthscales(), b.kernel.lengthscales());
  EXPECT_EQ(a.kernel.signal_variance(), b.kernel.signal_variance());
  EXPECT_EQ(a.noise_variance, b.noise_variance);
  EXPECT_EQ(a.log_marginal_likelihood, b.log_marginal_likelihood);
}

/// Fits both objectives as one batch on every pool size and checks each
/// result, and the Rng's next draw, against two sequential single fits.
void expect_batch_equals_sequential(const TwoObjectives& data,
                                    const HyperoptResult* warm_t,
                                    const HyperoptResult* warm_e) {
  Rng sequential_rng(41);
  const HyperoptResult seq_t = fit_one(data.xs, data.t, sequential_rng, warm_t);
  const HyperoptResult seq_e = fit_one(data.xs, data.e, sequential_rng, warm_e);
  const double next_draw = sequential_rng.uniform();

  for (const std::size_t threads : {0, 1, 2, 8}) {
    SCOPED_TRACE(threads);
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads > 0) {
      pool = std::make_unique<runtime::ThreadPool>(threads);
    }
    const HyperoptProblem problems[] = {
        {KernelFamily::kMatern52, data.xs, data.t, warm_t},
        {KernelFamily::kMatern52, data.xs, data.e, warm_e}};
    Rng batch_rng(41);
    const std::vector<HyperoptResult> fits =
        fit_hyperparameters(problems, batch_rng, {}, pool.get());
    ASSERT_EQ(fits.size(), 2u);
    expect_bitwise_equal(fits[0], seq_t);
    expect_bitwise_equal(fits[1], seq_e);
    EXPECT_EQ(batch_rng.uniform(), next_draw);
  }
}

// The MBO engine fits its two GPs as one parallel region: every restart
// start is drawn up front in the sequential order and each GP keeps its
// first strictly best restart, so the batch is bit-identical to fitting
// the GPs one after another, whatever the pool.
TEST(Hyperopt, ParallelTwoGpSearchEqualsSequentialFits) {
  const TwoObjectives data = make_two_objectives(18, 39);
  expect_batch_equals_sequential(data, nullptr, nullptr);
}

TEST(Hyperopt, ParallelTwoGpWarmPolishEqualsSequentialFits) {
  const TwoObjectives data = make_two_objectives(18, 40);
  Rng rng(42);
  const HyperoptResult start_t =
      fit_one(data.xs, data.t, rng);
  const HyperoptResult start_e =
      fit_one(data.xs, data.e, rng);
  const TwoObjectives grown = make_two_objectives(24, 40);
  expect_batch_equals_sequential(grown, &start_t, &start_e);
}

}  // namespace
}  // namespace bofl::gp
