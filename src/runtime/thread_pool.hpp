// Fleet-scale concurrency runtime: a fixed-size worker pool with a shared
// task queue, plus the parallel_for_each building block the rest of the
// stack uses for embarrassingly-parallel work (independent FL clients in a
// round, candidate scoring in the MBO engine, controller sweeps).
//
// Design rules:
//   * Determinism is the caller's contract, concurrency is ours.  The pool
//     never reorders *results*: parallel_for_each writes into caller-owned
//     slots indexed by the item, so a reduction over those slots in index
//     order is bit-identical however many workers ran.  Anything stateful
//     (shared RNG draws, EWMA updates) must be pulled out of the parallel
//     region or split into per-task streams (common/rng.hpp stream_seed).
//   * The calling thread participates, and waits only on running threads.
//     parallel_for_each runs items on the caller too and its join waits
//     only for items some thread has claimed, never for a helper still in
//     the queue.  A pool of size 1 degenerates to the serial loop, and a
//     region opened on a worker (nested, or inside a submitted task) cannot
//     deadlock: its caller can always finish every item alone, while idle
//     workers that reach its helpers share the load.
//   * Exceptions propagate.  The first exception thrown by any task is
//     captured and rethrown on the calling thread once all items finished.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "telemetry/metrics.hpp"

namespace bofl::runtime {

/// Worker threads to use when the caller passed 0 ("pick for me"):
/// std::thread::hardware_concurrency(), floored at 1.
[[nodiscard]] std::size_t hardware_threads();

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means hardware_threads().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueue one task; the future carries its result or exception.
  template <typename F>
  [[nodiscard]] auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> future = task->get_future();
    post([task]() { (*task)(); });
    return future;
  }

  /// Enqueue one fire-and-forget task.  It must not throw: nothing would
  /// receive the exception.
  void post(std::function<void()> task);

  /// True when called from one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

 private:
  void worker_loop();

  /// Metric handles resolved from the global telemetry registry at pool
  /// construction (all null when telemetry is off — the hot paths then pay
  /// one null check).  A registry installed before a pool is created must
  /// outlive the pool.
  struct Telemetry {
    telemetry::Counter* tasks_submitted = nullptr;
    telemetry::Counter* tasks_executed = nullptr;
    telemetry::Histogram* task_seconds = nullptr;
    telemetry::Histogram* queue_depth = nullptr;
    telemetry::Gauge* utilization = nullptr;
  };

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  Telemetry telemetry_;
  std::atomic<double> busy_seconds_{0.0};
  std::chrono::steady_clock::time_point created_{};
};

namespace detail {

/// Shared state of one parallel_for_each region: a work cursor, a count of
/// finished items, and the first captured exception.  Helpers own it
/// through a shared_ptr, so one that starts after the region returned still
/// finds a live (exhausted) cursor.
struct ForEachState {
  explicit ForEachState(std::size_t n) : total(n) {}
  const std::size_t total;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  /// Claim items until the cursor is exhausted.  `fn` is only touched for a
  /// claimed item, and every claimed item finishes before the region's
  /// caller returns, so a late helper never reaches a dead `fn`.
  template <typename Fn>
  void drain(const Fn& fn) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < total; i = next.fetch_add(1, std::memory_order_relaxed)) {
      // Best-effort early exit once something threw: the item still counts.
      if (!failed.load(std::memory_order_acquire)) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) {
            error = std::current_exception();
          }
          failed.store(true, std::memory_order_release);
        }
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
        finished.notify_all();
      }
    }
  }

  /// Block until every item has finished.  Called after drain() ran dry, so
  /// every item is claimed and only running threads are waited on.
  void wait_finished() {
    for (std::size_t done = finished.load(std::memory_order_acquire);
         done < total; done = finished.load(std::memory_order_acquire)) {
      finished.wait(done, std::memory_order_acquire);
    }
  }
};

}  // namespace detail

/// Apply fn(i) for every i in [0, n).  Items are claimed dynamically from a
/// shared cursor, so uneven item costs balance across workers; the calling
/// thread works too, and returns as soon as every item has finished, even
/// if some helpers are still queued (they later find nothing to claim).
/// With pool == nullptr, a pool of size 1, or n <= 1 the loop runs serially
/// on the caller.  The first exception any item throws is rethrown here
/// after the region finishes.
template <typename Fn>
void parallel_for_each(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (n == 0) {
    return;
  }
  if (pool == nullptr || pool->size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<detail::ForEachState>(n);
  // A worker opening a region is one of the pool's threads already.
  const std::size_t others = pool->size() - (pool->on_worker_thread() ? 1 : 0);
  const std::size_t helpers = std::min(others, n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->post([state, &fn]() { state->drain(fn); });
  }
  state->drain(fn);
  state->wait_finished();
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

}  // namespace bofl::runtime
