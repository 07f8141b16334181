#include "telemetry/metrics.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bofl::telemetry {

namespace detail {

std::size_t thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) & (kStripes - 1);
  return stripe;
}

}  // namespace detail

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t previous = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target && counts[i] > 0) {
      // Interpolate inside the bucket, clamped to the observed range so an
      // all-in-one-bucket histogram reports exact values.
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::max(lo, min);
      hi = std::min(hi, max);
      if (hi <= lo) {
        return hi;
      }
      const double within =
          (target - static_cast<double>(previous)) /
          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
  }
  return max;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  BOFL_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  BOFL_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly increasing");
  shards_.reserve(detail::kStripes);
  for (std::size_t s = 0; s < detail::kStripes; ++s) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

std::size_t Histogram::bucket_index(double v) const {
  // Bucket i counts v <= bounds[i]; anything above the last bound lands in
  // the overflow bucket.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

void Histogram::observe(double v) {
  Shard& shard = *shards_[detail::thread_stripe()];
  shard.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(shard.sum, v);
  detail::atomic_min(shard.min, v);
  detail::atomic_max(shard.max, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += shard->counts[b].load(std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    min = std::min(min, shard->min.load(std::memory_order_relaxed));
    max = std::max(max, shard->max.load(std::memory_order_relaxed));
  }
  snap.min = snap.count == 0 ? 0.0 : min;
  snap.max = snap.count == 0 ? 0.0 : max;
  return snap;
}

std::vector<double> exponential_buckets(double start, double factor,
                                        std::size_t count) {
  BOFL_REQUIRE(start > 0.0 && factor > 1.0 && count >= 1,
               "exponential buckets need start > 0, factor > 1, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& default_buckets() {
  static const std::vector<double> bounds =
      exponential_buckets(1e-6, 4.0, 21);  // 1e-6 .. ~1.1e6
  return bounds;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(
        bounds.empty() ? default_buckets() : std::move(bounds));
  }
  return *slot;
}

RegistrySnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;  // std::map iteration order = sorted by name
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->total()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back({name, histogram->snapshot()});
  }
  return snap;
}

namespace {
std::atomic<Registry*> g_registry{nullptr};
}  // namespace

Registry* global_registry() {
  return g_registry.load(std::memory_order_acquire);
}

void set_global_registry(Registry* registry) {
  g_registry.store(registry, std::memory_order_release);
}

}  // namespace bofl::telemetry
