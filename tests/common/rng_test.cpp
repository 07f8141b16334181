#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "common/stats.hpp"

namespace bofl {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.uniform());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.5);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.5);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(13);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(17);
  std::set<std::size_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(17);
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0, 0.02);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.normal(3.0, 0.5));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(Rng, LognormalMean1HasUnitMean) {
  for (const double cv : {0.01, 0.05, 0.2, 0.5}) {
    Rng rng(31);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i) {
      stats.add(rng.lognormal_mean1(cv));
    }
    EXPECT_NEAR(stats.mean(), 1.0, 0.01) << "cv=" << cv;
    EXPECT_NEAR(stats.stddev(), cv, 0.05 * cv + 0.003) << "cv=" << cv;
  }
}

TEST(Rng, LognormalMean1ZeroCvIsExact) {
  Rng rng(37);
  EXPECT_EQ(rng.lognormal_mean1(0.0), 1.0);
}

TEST(LognormalMean1, MatchesRngLognormalMean1BitForBit) {
  for (const double cv : {0.0, 0.01, 0.08, 0.5}) {
    const LognormalMean1 dist(cv);
    Rng hoisted(43);
    Rng per_draw(43);
    Rng spelled_out(43);
    // The formula as written before the constants were hoisted: log1p and
    // sqrt on every draw.
    const double sigma2 = std::log1p(cv * cv);
    for (int i = 0; i < 1000; ++i) {
      const double a = dist(hoisted);
      const double b = per_draw.lognormal_mean1(cv);
      const double c = cv == 0.0
                           ? 1.0
                           : std::exp(spelled_out.normal(-0.5 * sigma2,
                                                         std::sqrt(sigma2)));
      ASSERT_EQ(a, b) << "cv=" << cv << " draw " << i;
      ASSERT_EQ(a, c) << "cv=" << cv << " draw " << i;
    }
    // Both generators consumed the same draws.
    EXPECT_EQ(hoisted.normal(), per_draw.normal()) << "cv=" << cv;
    EXPECT_EQ(hoisted(), per_draw()) << "cv=" << cv;
  }
}

TEST(LognormalMean1, RejectsNegativeCv) {
  EXPECT_THROW(LognormalMean1{-0.1}, std::invalid_argument);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_without_replacement(30, 12);
    ASSERT_EQ(sample.size(), 12u);
    const std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 12u);
    for (std::size_t v : sample) {
      EXPECT_LT(v, 30u);
    }
  }
}

TEST(Rng, SampleWithoutReplacementFullPopulation) {
  Rng rng(47);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(47);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(59);
  Rng child = parent.split();
  // The two streams should not be identical.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(SplitMix, KnownFirstOutput) {
  // Reference value from the SplitMix64 definition with state 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

}  // namespace
}  // namespace bofl
