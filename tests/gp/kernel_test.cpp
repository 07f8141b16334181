#include "gp/kernel.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/simd/dispatch.hpp"
#include "runtime/thread_pool.hpp"

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

/// Covariance between two points: a one-point cross-covariance row.
double pair_value(const Kernel& k, const linalg::Vector& a,
                  const linalg::Vector& b) {
  return k.cross(a, {b})[0];
}

TEST(Kernel, ValueAtZeroDistanceIsSignalVariance) {
  for (const auto family : {KernelFamily::kMatern52, KernelFamily::kMatern32,
                            KernelFamily::kRbf}) {
    const Kernel k(family, 2.5, {0.3, 0.7});
    const linalg::Vector x{0.4, 0.6};
    EXPECT_DOUBLE_EQ(pair_value(k, x, x), 2.5) << to_string(family);
  }
}

TEST(Kernel, Symmetry) {
  const Kernel k(KernelFamily::kMatern52, 1.0, {0.5, 0.5, 0.5});
  const linalg::Vector a{0.1, 0.2, 0.3};
  const linalg::Vector b{0.9, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(pair_value(k, a, b), pair_value(k, b, a));
}

TEST(Kernel, DecaysWithDistance) {
  const Kernel k(KernelFamily::kMatern52, 1.0, {0.5});
  double prev = pair_value(k, {0.0}, {0.0});
  for (double d = 0.1; d < 2.0; d += 0.1) {
    const double v = pair_value(k, {0.0}, {d});
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(Kernel, Matern52KnownValue) {
  // k(r) = sv * (1 + s + s^2/3) exp(-s), s = sqrt(5) r.
  const Kernel k(KernelFamily::kMatern52, 1.0, {1.0});
  const double r = 0.7;
  const double s = std::sqrt(5.0) * r;
  const double expected = (1.0 + s + s * s / 3.0) * std::exp(-s);
  EXPECT_NEAR(pair_value(k, {0.0}, {r}), expected, 1e-14);
}

TEST(Kernel, RbfKnownValue) {
  const Kernel k(KernelFamily::kRbf, 2.0, {0.5});
  const double r = 1.0 / 0.5;  // scaled distance
  EXPECT_NEAR(pair_value(k, {0.0}, {1.0}), 2.0 * std::exp(-0.5 * r * r), 1e-14);
}

TEST(Kernel, ArdLengthscalesActPerDimension) {
  const Kernel k(KernelFamily::kRbf, 1.0, {0.1, 10.0});
  // A move along the long-lengthscale axis barely matters; along the short
  // axis it matters a lot.
  const double along_short = pair_value(k, {0.0, 0.0}, {0.1, 0.0});
  const double along_long = pair_value(k, {0.0, 0.0}, {0.0, 0.1});
  EXPECT_LT(along_short, 0.75);
  EXPECT_GT(along_long, 0.99);
}

TEST(Kernel, FamiliesDiffer) {
  const linalg::Vector a{0.0};
  const linalg::Vector b{0.5};
  const Kernel m52(KernelFamily::kMatern52, 1.0, {1.0});
  const Kernel m32(KernelFamily::kMatern32, 1.0, {1.0});
  const Kernel rbf(KernelFamily::kRbf, 1.0, {1.0});
  EXPECT_NE(pair_value(m52, a, b), pair_value(m32, a, b));
  EXPECT_NE(pair_value(m52, a, b), pair_value(rbf, a, b));
}

TEST(Kernel, RejectsInvalidParameters) {
  EXPECT_THROW(Kernel(KernelFamily::kRbf, 0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(Kernel(KernelFamily::kRbf, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(Kernel(KernelFamily::kRbf, 1.0, {-1.0}),
               std::invalid_argument);
}

TEST(Kernel, RejectsDimensionMismatch) {
  const Kernel k(KernelFamily::kMatern52, 1.0, {1.0, 1.0});
  EXPECT_THROW((void)pair_value(k, {0.0}, {0.0, 0.0}), std::invalid_argument);
}

TEST(Kernel, CrossCovarianceMatchesPointwise) {
  // Every entry of a cross-covariance row equals the one-point row of the
  // same pair, in either argument order, bit for bit: MboEngine extends its
  // cached candidate rows with one row from each fantasized point.  Rows of
  // 1-9 points cover every remainder of the AVX2 four-point blocks.
  std::vector<linalg::simd::Level> levels{linalg::simd::Level::kScalar};
  if (linalg::simd::avx2_compiled() && linalg::simd::cpu_supports_avx2()) {
    levels.push_back(linalg::simd::Level::kAvx2);
  }
  Rng rng(17);
  for (const linalg::simd::Level level : levels) {
    const ScopedSimdLevel pinned(level);
    for (const auto family : {KernelFamily::kMatern52, KernelFamily::kMatern32,
                              KernelFamily::kRbf}) {
      const Kernel k(family, 1.3, {0.4, 0.6, 0.25});
      for (std::size_t count = 1; count <= 9; ++count) {
        const linalg::Vector x{rng.uniform(), rng.uniform(), rng.uniform()};
        std::vector<linalg::Vector> points;
        for (std::size_t i = 0; i < count; ++i) {
          points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        }
        const linalg::Vector cross = k.cross(x, points);
        ASSERT_EQ(cross.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
          const auto bits = std::bit_cast<std::uint64_t>(cross[i]);
          EXPECT_EQ(bits,
                    std::bit_cast<std::uint64_t>(pair_value(k, x, points[i])))
              << linalg::simd::to_string(level) << " " << to_string(family)
              << " count=" << count << " i=" << i;
          EXPECT_EQ(bits,
                    std::bit_cast<std::uint64_t>(pair_value(k, points[i], x)))
              << linalg::simd::to_string(level) << " " << to_string(family)
              << " count=" << count << " i=" << i;
        }
      }
    }
  }
}

TEST(Kernel, GramFromAPoolWorkerIsBitwiseEqualToSerial) {
  // The fleet control plane extends clusters ON pool workers, and each
  // cluster's GP fit may hand that same pool to gram().  The row fan-out
  // then runs on that worker plus whichever workers are idle, never waits
  // on a queued helper, and the result must stay bitwise equal to the
  // serial product.  Use enough points to cross gram()'s internal parallel
  // threshold.
  Rng rng(42);
  const Kernel k(KernelFamily::kMatern52, 1.2, {0.4, 0.4, 0.4});
  std::vector<linalg::Vector> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }

  linalg::Matrix serial;
  k.gram(points, serial);
  runtime::ThreadPool pool(4);
  linalg::Matrix parallel;
  k.gram(points, parallel, &pool);
  linalg::Matrix from_worker = pool.submit([&]() {
    EXPECT_TRUE(pool.on_worker_thread());
    linalg::Matrix out;
    k.gram(points, out, &pool);  // a region nested in a submitted task
    return out;
  }).get();

  ASSERT_EQ(serial.rows(), points.size());
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(serial(i, j), parallel(i, j)) << i << "," << j;
      EXPECT_EQ(serial(i, j), from_worker(i, j)) << i << "," << j;
    }
  }
}

// Positive semi-definiteness: the Gram matrix of random point sets must
// factor after a tiny jitter, for every kernel family.
class KernelPsd : public ::testing::TestWithParam<KernelFamily> {};

TEST_P(KernelPsd, GramIsPositiveSemiDefinite) {
  Rng rng(99);
  const Kernel k(GetParam(), 1.0, {0.3, 0.3, 0.3});
  std::vector<linalg::Vector> points;
  for (int i = 0; i < 25; ++i) {
    points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
  }
  linalg::Matrix gram;
  k.gram(points, gram);
  for (std::size_t i = 0; i < points.size(); ++i) {
    gram(i, i) += 1e-9;
  }
  linalg::Matrix l;
  EXPECT_TRUE(linalg::cholesky(gram, l))
      << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Families, KernelPsd,
                         ::testing::Values(KernelFamily::kMatern52,
                                           KernelFamily::kMatern32,
                                           KernelFamily::kRbf));

}  // namespace
}  // namespace bofl::gp
