// Thread-safe metrics registry: counters, gauges and fixed-bucket
// histograms for observing where time and energy go across the stack.
//
// Design rules:
//   * Hot-path writes are lock-free.  Every metric is sharded into a fixed
//     number of cache-line-aligned stripes; a thread picks its stripe once
//     (round-robin at first use) and then only ever touches that stripe
//     with relaxed atomics.  Reads merge the stripes, so snapshots are
//     consistent-enough for reporting without ever stalling a writer.
//   * Observation only.  Nothing in this module consumes RNG draws or
//     SimClock time, so instrumenting a simulation cannot perturb its
//     results (the determinism contract, see DESIGN.md "Observability &
//     telemetry").
//   * Zero-cost when disabled.  Instrumentation sites fetch the process
//     global registry (one atomic load); when none is installed they skip
//     all work.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bofl::telemetry {

namespace detail {

/// Stripes per metric; power of two so the thread-id mask is a single AND.
inline constexpr std::size_t kStripes = 16;

/// The stripe this thread writes to (assigned round-robin at first use).
[[nodiscard]] std::size_t thread_stripe();

/// Portable atomic `target += delta` for doubles (CAS loop; relaxed).
inline void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value < current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

inline void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[detail::thread_stripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum of all stripes.
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, detail::kStripes> cells_;
};

/// Last-write-wins scalar (worker counts, utilizations, hypervolume).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged view of one histogram: cumulative-style fixed buckets plus the
/// scalar moments needed for reporting.
struct HistogramSnapshot {
  /// Upper bounds of the finite buckets (strictly increasing); counts has
  /// one extra trailing entry for the overflow bucket.
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Bucket-interpolated quantile estimate, clamped to [min, max].
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-bucket histogram; bucket i counts observations v <= bounds[i],
/// plus an implicit overflow bucket.  Writes are striped like Counter.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets)
        : counts(buckets),
          min(std::numeric_limits<double>::infinity()),
          max(-std::numeric_limits<double>::infinity()) {}
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min;
    std::atomic<double> max;
  };

  [[nodiscard]] std::size_t bucket_index(double v) const;

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// `count` bounds starting at `start`, each `factor` times the previous.
[[nodiscard]] std::vector<double> exponential_buckets(double start,
                                                      double factor,
                                                      std::size_t count);
/// Factor-4 bounds from 1 µs-scale to ~1e6 — wide enough for both seconds
/// and joules; the default when a histogram is created without bounds.
[[nodiscard]] const std::vector<double>& default_buckets();

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct NamedHistogramSnapshot {
  std::string name;
  HistogramSnapshot histogram;
};

/// Point-in-time merged view of a whole registry, sorted by name.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<NamedHistogramSnapshot> histograms;
};

/// Named-metric owner.  Registration (first use of a name) takes a mutex;
/// returned references stay valid for the registry's lifetime, so call
/// sites look a metric up once per scope and then write lock-free.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// Get-or-create; `bounds` applies only on creation (empty = defaults).
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> bounds = {});

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry used by the instrumentation sites across the
/// stack; nullptr (the default) disables all recording.  The installed
/// registry must outlive every component that cached handles from it
/// (create it first, destroy it last).
[[nodiscard]] Registry* global_registry();
void set_global_registry(Registry* registry);

}  // namespace bofl::telemetry
