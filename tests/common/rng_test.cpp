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

TEST(UnitThreshold, IntegerCompareMatchesTheUnitDrawAtEveryEdge) {
  // The fleet engine's Bernoulli draw, `double(h >> 11) * 2^-53 < p`, and
  // its integer form must agree for every p, including hashes right at the
  // threshold.
  const auto unit_draw = [](std::uint64_t hash, double p) {
    return static_cast<double>(hash >> 11) * 0x1.0p-53 < p;
  };
  const std::uint64_t top = std::uint64_t{1} << 53;
  for (const double p :
       {0.0, 4.9e-324, 1e-300, 0.01, 0.2, std::nextafter(0.2, 0.0),
        std::nextafter(0.2, 1.0), 0.999999, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "p=" << std::hexfloat << p);
    const std::uint64_t threshold = unit_threshold(p);
    ASSERT_LE(threshold, top);
    // Units straddling the threshold, each with the lowest and the highest
    // value of the 11 bits the shift discards.
    for (std::uint64_t delta = 0; delta < 4; ++delta) {
      for (const std::uint64_t unit :
           {threshold + delta, threshold - std::min(threshold, delta)}) {
        if (unit >= top) {
          continue;
        }
        for (const std::uint64_t low : {0x000ULL, 0x7FFULL}) {
          const std::uint64_t hash = (unit << 11) | low;
          EXPECT_EQ((hash >> 11) < threshold, unit_draw(hash, p))
              << "hash=" << hash;
        }
      }
    }
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
      const std::uint64_t hash = rng();
      EXPECT_EQ((hash >> 11) < threshold, unit_draw(hash, p));
    }
  }
  EXPECT_EQ(unit_threshold(0.0), 0u);
  EXPECT_EQ(unit_threshold(-1.0), 0u);
  EXPECT_EQ(unit_threshold(std::nan("")), 0u);
  EXPECT_EQ(unit_threshold(4.9e-324), 1u);
  EXPECT_EQ(unit_threshold(1.0), top);
  EXPECT_EQ(unit_threshold(2.0), top);
}

TEST(SplitMix, KnownFirstOutput) {
  // Reference value from the SplitMix64 definition with state 0.
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

}  // namespace
}  // namespace bofl
