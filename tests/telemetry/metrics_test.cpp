// Concurrency and shard-merge correctness for the metrics registry.  The
// CI TSan job runs this binary, so the concurrent tests double as data-race
// proofs for the striped write paths.
#include "telemetry/metrics.hpp"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace bofl::telemetry {
namespace {

TEST(Counter, ConcurrentAddsSumExactly) {
  Counter counter;
  // More threads than stripes, so several threads share a stripe and the
  // fetch_add path is exercised under real contention.
  constexpr int kThreads = 3 * static_cast<int>(detail::kStripes) / 2;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.total(), kThreads * kPerThread);
}

TEST(Counter, AddWithArgument) {
  Counter counter;
  counter.add(5);
  counter.add();
  EXPECT_EQ(counter.total(), 6u);
}

TEST(Gauge, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-1.25);
  EXPECT_EQ(gauge.value(), -1.25);
}

TEST(Histogram, ConcurrentObservesMergeExactly) {
  // Integer-valued observations keep the shard sums exact, so the merged
  // snapshot must reproduce count/sum/min/max with no tolerance.
  Histogram histogram({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  constexpr int kThreads = 24;  // > kStripes: stripes are shared
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(static_cast<double>(t % 4 + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // 24 threads cycle through values 1..4, six threads per value.
  const double expected_sum = 6.0 * kPerThread * (1.0 + 2.0 + 3.0 + 4.0);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 4.0);
}

TEST(Histogram, ShardMergeInvariants) {
  Histogram histogram(std::vector<double>{1.0, 10.0, 100.0});
  const std::vector<double> values{0.5, 5.0, 50.0, 500.0, 5.0, 0.25};
  std::vector<std::thread> threads;
  for (double v : values) {
    threads.emplace_back([&histogram, v] { histogram.observe(v); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const HistogramSnapshot snap = histogram.snapshot();
  // counts has one overflow bucket beyond the finite bounds.
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.counts.size(), 4u);
  // Sum of bucket counts always equals the total observation count.
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : snap.counts) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.counts[0], 2u);  // 0.5, 0.25
  EXPECT_EQ(snap.counts[1], 2u);  // 5.0 x2
  EXPECT_EQ(snap.counts[2], 1u);  // 50.0
  EXPECT_EQ(snap.counts[3], 1u);  // 500.0 overflows
  EXPECT_EQ(snap.min, 0.25);
  EXPECT_EQ(snap.max, 500.0);
}

TEST(Histogram, BucketBoundaryIsInclusive) {
  // Prometheus-style "le": an observation equal to a bound lands in that
  // bound's bucket.
  Histogram histogram(std::vector<double>{1.0, 2.0});
  histogram.observe(1.0);
  histogram.observe(2.0);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
}

TEST(Histogram, QuantileInterpolatesAndClamps) {
  Histogram histogram(
      {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0});
  for (int i = 1; i <= 100; ++i) {
    histogram.observe(static_cast<double>(i));
  }
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(snap.quantile(0.9), 90.0, 10.0);
  // Quantiles never escape the observed range.
  EXPECT_GE(snap.quantile(0.0), snap.min);
  EXPECT_LE(snap.quantile(1.0), snap.max);
  EXPECT_EQ(snap.mean(), 50.5);
}

TEST(Histogram, SingleValueQuantilesAreExact) {
  // All mass in one bucket with min == max: every quantile is that value.
  Histogram histogram(std::vector<double>{1.0, 10.0});
  histogram.observe(2.0);
  histogram.observe(2.0);
  histogram.observe(2.0);
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.quantile(0.5), 2.0);
  EXPECT_EQ(snap.quantile(0.99), 2.0);
  EXPECT_EQ(snap.mean(), 2.0);
}

TEST(Histogram, EmptySnapshotIsBenign) {
  Histogram histogram(default_buckets());
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
}

TEST(BucketHelpers, ShapesAreCorrect) {
  const std::vector<double> exp = exponential_buckets(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const std::vector<double>& def = default_buckets();
  ASSERT_GE(def.size(), 2u);
  for (std::size_t i = 1; i < def.size(); ++i) {
    EXPECT_GT(def[i], def[i - 1]);
  }
}

TEST(Registry, SameNameReturnsSameMetric) {
  Registry registry;
  Counter& a = registry.counter("hits");
  Counter& b = registry.counter("hits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.total(), 3u);
  Histogram& h1 = registry.histogram("lat", {1.0, 2.0});
  // Bounds apply only on creation; the second call ignores them.
  Histogram& h2 = registry.histogram("lat", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 100; ++i) {
        registry.counter("shared").add();
        registry.histogram("h").observe(1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(registry.counter("shared").total(), 800u);
  EXPECT_EQ(registry.histogram("h").snapshot().count, 800u);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("zeta").add();
  registry.counter("alpha").add(2);
  registry.gauge("mid").set(1.0);
  const RegistrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[0].value, 2u);
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "mid");
}

TEST(GlobalRegistry, InstallAndClear) {
  EXPECT_EQ(global_registry(), nullptr);
  Registry registry;
  set_global_registry(&registry);
  EXPECT_EQ(global_registry(), &registry);
  set_global_registry(nullptr);
  EXPECT_EQ(global_registry(), nullptr);
}

}  // namespace
}  // namespace bofl::telemetry
