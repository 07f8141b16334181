#include "gp/gaussian_process.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::gp {
namespace {

/// Pins the dispatch level for a scope and restores the ambient level on exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(linalg::simd::Level level)
      : previous_(linalg::simd::active_level()) {
    linalg::simd::force_level(level);
  }
  ~ScopedSimdLevel() { linalg::simd::force_level(previous_); }

 private:
  linalg::simd::Level previous_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Kernel default_kernel() {
  return {KernelFamily::kMatern52, 1.0, {0.3}};
}

TEST(GaussianProcess, PriorPrediction) {
  GaussianProcess gp(default_kernel(), 1e-6);
  const Prediction p = gp.predict({0.5});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GaussianProcess, InterpolatesNoiselessData) {
  GaussianProcess gp(default_kernel(), 0.0);
  const std::vector<linalg::Vector> xs{{0.1}, {0.4}, {0.7}, {0.9}};
  std::vector<double> ys;
  for (const auto& x : xs) {
    ys.push_back(std::sin(6.0 * x[0]));
  }
  gp.condition(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const Prediction p = gp.predict(xs[i]);
    EXPECT_NEAR(p.mean, ys[i], 1e-5);
    EXPECT_NEAR(p.variance, 0.0, 1e-5);
  }
}

TEST(GaussianProcess, VarianceGrowsAwayFromData) {
  GaussianProcess gp(default_kernel(), 1e-6);
  gp.condition({{0.5}}, {1.0});
  const double near = gp.predict({0.52}).variance;
  const double far = gp.predict({0.95}).variance;
  EXPECT_LT(near, far);
  EXPECT_LE(far, 1.0 + 1e-9);
}

TEST(GaussianProcess, MeanRevertsToPriorFarAway) {
  GaussianProcess gp(default_kernel(), 1e-6);
  gp.condition({{0.0}}, {5.0});
  EXPECT_NEAR(gp.predict({100.0}).mean, 0.0, 1e-6);
}

TEST(GaussianProcess, NoiseSmoothsInterpolation) {
  const std::vector<linalg::Vector> xs{{0.3}, {0.3}};
  const std::vector<double> ys{1.0, -1.0};  // contradictory observations
  GaussianProcess gp(default_kernel(), 0.5);
  gp.condition(xs, ys);
  // With symmetric noise the posterior mean at the point is the average.
  EXPECT_NEAR(gp.predict({0.3}).mean, 0.0, 1e-9);
}

TEST(GaussianProcess, AddObservationMatchesBatchConditioning) {
  const std::vector<linalg::Vector> xs{{0.1}, {0.5}, {0.8}};
  const std::vector<double> ys{0.4, -0.2, 0.9};
  GaussianProcess batch(default_kernel(), 1e-4);
  batch.condition(xs, ys);
  GaussianProcess incremental(default_kernel(), 1e-4);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    incremental.add_observation(xs[i], ys[i]);
  }
  for (const double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Prediction a = batch.predict({q});
    const Prediction b = incremental.predict({q});
    EXPECT_NEAR(a.mean, b.mean, 1e-12);
    EXPECT_NEAR(a.variance, b.variance, 1e-12);
  }
}

// Differential test for the incremental algebra: a GP extended one
// observation at a time (rank-1 Cholesky borders) must agree with its
// full-refit twin to tight tolerance over randomized data in several
// dimensions — means, variances, and the log marginal likelihood.
TEST(GaussianProcess, IncrementalMatchesFullRefitOnRandomData) {
  for (const std::size_t dim : {1u, 2u, 3u}) {
    SCOPED_TRACE(dim);
    Rng rng(50 + dim);
    Kernel kernel(KernelFamily::kMatern52, 1.3,
                  std::vector<double>(dim, 0.4));
    GaussianProcess incremental(kernel, 1e-4);
    GaussianProcess reference(kernel, 1e-4);
    reference.set_full_refit(true);
    for (int i = 0; i < 25; ++i) {
      linalg::Vector x(dim);
      for (double& v : x) {
        v = rng.uniform();
      }
      const double y = rng.normal();
      incremental.add_observation(x, y);
      reference.add_observation(x, y);
    }
    EXPECT_FALSE(incremental.full_refit());
    EXPECT_NEAR(incremental.log_marginal_likelihood(),
                reference.log_marginal_likelihood(), 1e-7);
    for (int q = 0; q < 10; ++q) {
      linalg::Vector x(dim);
      for (double& v : x) {
        v = rng.uniform();
      }
      const Prediction a = incremental.predict(x);
      const Prediction b = reference.predict(x);
      EXPECT_NEAR(a.mean, b.mean, 1e-8);
      EXPECT_NEAR(a.variance, b.variance, 1e-8);
    }
  }
}

// A duplicate noiseless observation makes the bordered matrix singular:
// the incremental path must fall back to a full (jittered) refit and keep
// producing finite, sane predictions.
TEST(GaussianProcess, IncrementalFallsBackOnDuplicateNoiselessPoint) {
  GaussianProcess gp(default_kernel(), 0.0);
  gp.add_observation({0.4}, 1.0);
  gp.add_observation({0.9}, -0.5);
  EXPECT_EQ(gp.jitter(), 0.0);
  gp.add_observation({0.4}, 1.0);  // exact duplicate, zero noise
  EXPECT_GT(gp.jitter(), 0.0);     // the fallback refit had to jitter
  const Prediction p = gp.predict({0.4});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_TRUE(std::isfinite(p.variance));
  EXPECT_NEAR(p.mean, 1.0, 1e-2);
}

TEST(GaussianProcess, PredictFromCrossMatchesPredict) {
  Rng rng(61);
  GaussianProcess gp(default_kernel(), 1e-4);
  for (int i = 0; i < 12; ++i) {
    gp.add_observation({rng.uniform()}, rng.normal());
  }
  for (int q = 0; q < 5; ++q) {
    const linalg::Vector x{rng.uniform()};
    const Prediction direct = gp.predict(x);
    const Prediction via_cross =
        gp.predict_from_cross(gp.kernel().cross(x, gp.inputs()));
    EXPECT_DOUBLE_EQ(via_cross.mean, direct.mean);
    EXPECT_DOUBLE_EQ(via_cross.variance, direct.variance);
  }
}

// predict_block must agree with per-point prediction for every point of a
// block (one multi-RHS solve vs. independent solves).
TEST(GaussianProcess, PredictBlockMatchesPerPointPrediction) {
  Rng rng(67);
  GaussianProcess gp(default_kernel(), 1e-4);
  for (int i = 0; i < 15; ++i) {
    gp.add_observation({rng.uniform()}, rng.normal());
  }
  const std::size_t m = 9;
  std::vector<linalg::Vector> rows(m);
  std::vector<linalg::Vector> queries(m);
  std::vector<std::size_t> indices(m);
  for (std::size_t j = 0; j < m; ++j) {
    queries[j] = {rng.uniform()};
    rows[j] = gp.kernel().cross(queries[j], gp.inputs());
    indices[j] = j;
  }
  std::vector<Prediction> block(m);
  gp.predict_block(rows, indices.data(), m, block.data());
  for (std::size_t j = 0; j < m; ++j) {
    const Prediction ref = gp.predict(queries[j]);
    EXPECT_NEAR(block[j].mean, ref.mean, 1e-12);
    EXPECT_NEAR(block[j].variance, ref.variance, 1e-12);
  }
}

// One GP refit in place through a sequence of hyperparameters must equal,
// bit for bit, a fresh GP conditioned under each of them: the reused Gram,
// factor and alpha storage carries nothing from one fit into the next.  The
// last data sets are near-duplicate points, with noise at the search's 1e-8
// floor and with none, so the jitter ladder runs too.
TEST(GaussianProcess, InPlaceRefitMatchesFreshFit) {
  std::vector<linalg::simd::Level> levels{linalg::simd::Level::kScalar};
  if (linalg::simd::avx2_compiled() && linalg::simd::cpu_supports_avx2()) {
    levels.push_back(linalg::simd::Level::kAvx2);
  }
  bool saw_jitter = false;
  for (const linalg::simd::Level level : levels) {
    const ScopedSimdLevel pinned(level);
    Rng rng(2024);
    for (const KernelFamily family : {KernelFamily::kMatern52,
                                      KernelFamily::kMatern32,
                                      KernelFamily::kRbf}) {
      for (std::size_t n = 1; n <= 70; ++n) {
        const bool near_duplicates = n > 60;
        std::vector<linalg::Vector> xs;
        std::vector<double> ys;
        const linalg::Vector centre{rng.uniform(), rng.uniform()};
        for (std::size_t i = 0; i < n; ++i) {
          xs.push_back(near_duplicates
                           ? linalg::Vector{centre[0] + 1e-9 * rng.uniform(),
                                            centre[1]}
                           : linalg::Vector{rng.uniform(), rng.uniform()});
          ys.push_back(rng.normal());
        }
        std::vector<linalg::Vector> queries;
        for (int q = 0; q < 5; ++q) {
          queries.push_back({rng.uniform(), rng.uniform()});
        }
        const std::size_t indices[] = {4, 0, 2, 1, 3};

        GaussianProcess refit(Kernel(family, 1.0, {0.4, 0.4}), 1e-3);
        refit.condition(xs, ys);
        for (int step = 0; step < 4; ++step) {
          const Kernel kernel(family, rng.uniform(1e-2, 1e2),
                              {rng.uniform(0.02, 10.0), rng.uniform(0.02, 10.0)});
          const double noise = near_duplicates ? (step % 2 == 0 ? 1e-8 : 0.0)
                                               : rng.uniform(1e-8, 1e-1);
          refit.set_hyperparameters(kernel, noise);
          GaussianProcess fresh(kernel, noise);
          fresh.condition(xs, ys);
          saw_jitter = saw_jitter || refit.jitter() > 0.0;

          ASSERT_EQ(bits(refit.jitter()), bits(fresh.jitter()));
          ASSERT_EQ(bits(refit.log_marginal_likelihood()),
                    bits(fresh.log_marginal_likelihood()))
              << to_string(family) << " n=" << n << " step " << step;
          std::vector<linalg::Vector> rows;
          for (const linalg::Vector& q : queries) {
            rows.push_back(kernel.cross(q, xs));
          }
          Prediction got[5];
          Prediction want[5];
          refit.predict_block(rows, indices, 5, got);
          fresh.predict_block(rows, indices, 5, want);
          for (int j = 0; j < 5; ++j) {
            ASSERT_EQ(bits(got[j].mean), bits(want[j].mean));
            ASSERT_EQ(bits(got[j].variance), bits(want[j].variance));
          }
        }
      }
    }
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(GaussianProcess, SetHyperparametersRejectsDimensionChange) {
  GaussianProcess gp(default_kernel(), 1e-6);
  gp.condition({{0.2}, {0.7}}, {1.0, -1.0});
  EXPECT_THROW(gp.set_hyperparameters({KernelFamily::kRbf, 1.0, {0.3, 0.3}},
                                      1e-6),
               std::invalid_argument);
  EXPECT_THROW(gp.set_hyperparameters(default_kernel(), -1.0),
               std::invalid_argument);
}

TEST(GaussianProcess, PredictBlockOnPriorReturnsPrior) {
  GaussianProcess gp(default_kernel(), 1e-4);
  std::vector<linalg::Vector> rows{{}};
  const std::size_t index = 0;
  Prediction p;
  gp.predict_block(rows, &index, 1, &p);
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
}

TEST(GaussianProcess, LogMarginalLikelihoodPrefersTruth) {
  // Data drawn from a smooth function: a sane lengthscale must beat an
  // absurdly short one.
  Rng rng(3);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    const double x = rng.uniform();
    xs.push_back({x});
    ys.push_back(std::sin(4.0 * x));
  }
  GaussianProcess sane(Kernel(KernelFamily::kMatern52, 1.0, {0.3}), 1e-4);
  sane.condition(xs, ys);
  GaussianProcess absurd(Kernel(KernelFamily::kMatern52, 1.0, {0.001}), 1e-4);
  absurd.condition(xs, ys);
  EXPECT_GT(sane.log_marginal_likelihood(), absurd.log_marginal_likelihood());
}

TEST(GaussianProcess, LmlRequiresData) {
  GaussianProcess gp(default_kernel(), 1e-4);
  EXPECT_THROW((void)gp.log_marginal_likelihood(), std::invalid_argument);
}

TEST(GaussianProcess, RejectsMismatchedData) {
  GaussianProcess gp(default_kernel(), 1e-4);
  EXPECT_THROW(gp.condition({{0.1}, {0.2}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gp.condition({{0.1, 0.2}}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gp.predict({0.1, 0.2}), std::invalid_argument);
}

TEST(GaussianProcess, RejectsNegativeNoise) {
  EXPECT_THROW(GaussianProcess(default_kernel(), -0.1),
               std::invalid_argument);
}

// The posterior mean must be a weighted blend: predicting between two
// observations lands between their values for a monotone section.
TEST(GaussianProcess, PosteriorMeanInterpolatesMonotoneSection) {
  GaussianProcess gp(default_kernel(), 1e-8);
  gp.condition({{0.2}, {0.8}}, {0.0, 1.0});
  const double mid = gp.predict({0.5}).mean;
  EXPECT_GT(mid, -0.05);
  EXPECT_LT(mid, 1.05);
}

// Property sweep over dimensions: interpolation holds in d dims.
class GpDimension : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpDimension, InterpolatesInAnyDimension) {
  const std::size_t d = GetParam();
  Rng rng(10 + d);
  Kernel kernel(KernelFamily::kMatern52, 1.0,
                std::vector<double>(d, 0.5));
  GaussianProcess gp(std::move(kernel), 0.0);
  std::vector<linalg::Vector> xs;
  std::vector<double> ys;
  for (int i = 0; i < 8; ++i) {
    linalg::Vector x(d);
    for (double& v : x) {
      v = rng.uniform();
    }
    double y = 0.0;
    for (double v : x) {
      y += std::cos(3.0 * v);
    }
    xs.push_back(std::move(x));
    ys.push_back(y);
  }
  gp.condition(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(gp.predict(xs[i]).mean, ys[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, GpDimension, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace bofl::gp
