#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace bofl::runtime {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter]() { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsTaskValue) {
  ThreadPool pool(2);
  std::future<int> f = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), hardware_threads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([]() { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsOutstandingTasksWhileBusy) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      // Discard the futures: shutdown alone must guarantee completion.
      auto f = pool.submit([&completed]() { ++completed; });
      (void)f;
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(completed.load(), 32);
}

TEST(ParallelForEach, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for_each(&pool, kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForEach, NullPoolRunsSerially) {
  std::vector<int> order;
  parallel_for_each(nullptr, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: serial by contract
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForEach, RethrowsTheFirstTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_each(&pool, 64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::invalid_argument("13");
                                   }
                                 }),
               std::invalid_argument);
}

TEST(ParallelForEach, NestedRegionsOnOnePoolComplete) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for_each(&pool, 8, [&](std::size_t) {
    parallel_for_each(&pool, 8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForEach, ReenteringThePoolFromASubmittedWorkerRunsInline) {
  // The nested-parallelism rule the fleet control plane relies on: a region
  // started FROM a pool worker (a submitted task, not a nested region) runs
  // its items on pool threads only — the worker itself, plus any idle
  // worker that reaches one of its queued helpers — and never waits on a
  // helper still in the queue, so a pool whose every worker opens a region
  // cannot deadlock.  Saturate the pool with such tasks to force the worst
  // case.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> futures;
  for (int t = 0; t < 8; ++t) {
    futures.push_back(pool.submit([&pool, &total]() {
      EXPECT_TRUE(pool.on_worker_thread());
      parallel_for_each(&pool, 16, [&](std::size_t) {
        EXPECT_TRUE(pool.on_worker_thread());  // ran on a pool worker
        ++total;
      });
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(total.load(), 8 * 16);
  EXPECT_FALSE(pool.on_worker_thread());  // the guard is per-thread
}

/// Occupies every worker of a pool until open() (or destruction).
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool& pool) {
    for (std::size_t w = 0; w < pool.size(); ++w) {
      blocked_.push_back(pool.submit([this]() {
        ++running_;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this]() { return open_; });
      }));
    }
    while (running_.load() < static_cast<int>(pool.size())) {
      std::this_thread::yield();
    }
  }
  ~WorkerBlocker() { open(); }
  WorkerBlocker(const WorkerBlocker&) = delete;
  WorkerBlocker& operator=(const WorkerBlocker&) = delete;

  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
    for (std::future<void>& f : blocked_) {
      if (f.valid()) {
        f.get();
      }
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> running_{0};
  std::vector<std::future<void>> blocked_;
};

constexpr auto kBoundedWait = std::chrono::seconds(20);

/// Runs parallel_for_each(pool, n, fn) on a thread of its own while every
/// worker of `pool` is blocked, so the region's helpers sit in the queue.
/// Returns whether the region returned within a bounded wait; if it did,
/// `on_return()` runs before the workers are released.  The workers are
/// released either way, so a region that waits on its queued helpers
/// fails the caller's check instead of hanging.
template <typename Fn, typename OnReturn>
bool region_returns_while_workers_blocked(ThreadPool& pool, std::size_t n,
                                          const Fn& fn,
                                          const OnReturn& on_return) {
  WorkerBlocker blocker(pool);
  std::future<void> region = std::async(
      std::launch::async, [&]() { parallel_for_each(&pool, n, fn); });
  const bool returned =
      region.wait_for(kBoundedWait) == std::future_status::ready;
  if (returned) {
    region.get();
    on_return();
  }
  blocker.open();
  return returned;  // a hung region finishes in ~future
}

TEST(ParallelForEach, CallerNeverWaitsOnAQueuedHelper) {
  // Both workers are busy; the caller must finish all items alone and
  // return without waiting for its helpers to leave the queue.
  ThreadPool pool(2);
  std::vector<int> out(64, 0);
  EXPECT_TRUE(region_returns_while_workers_blocked(
      pool, out.size(), [&](std::size_t i) { out[i] = static_cast<int>(i); },
      []() {}))
      << "the caller waited on helpers queued behind busy workers";
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

TEST(ParallelForEach, LateHelperNeverTouchesTheRegionsFn) {
  // The queued helpers run only after the region returned and its fn was
  // destroyed.  They must find the cursor exhausted and leave fn alone;
  // under ASan, a touch of the freed fn is a heap-use-after-free.
  std::atomic<bool> returned{false};
  std::atomic<int> late_calls{0};
  std::atomic<int> calls{0};
  {
    ThreadPool pool(2);
    auto fn = std::make_unique<std::function<void(std::size_t)>>(
        [&](std::size_t) {
          if (returned.load()) {
            ++late_calls;
          }
          ++calls;
        });
    EXPECT_TRUE(region_returns_while_workers_blocked(pool, 64, *fn, [&]() {
      returned = true;
      fn.reset();
    }));
  }  // ~ThreadPool runs the stale helpers before joining
  EXPECT_EQ(calls.load(), 64);
  EXPECT_EQ(late_calls.load(), 0);
}

TEST(ParallelForEach, IdleWorkersServeANestedRegion) {
  // A region opened inside a submitted task is shared with idle workers:
  // items 0 and 1 can only both pass a two-party barrier if another worker
  // runs one of them.  Each side waits a bounded time, so running the
  // region inline fails rather than hangs.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::array<bool, 2> met{false, false};
  pool.submit([&]() {
        parallel_for_each(&pool, 2, [&](std::size_t i) {
          std::unique_lock<std::mutex> lock(mutex);
          ++arrived;
          cv.notify_all();
          met[i] = cv.wait_for(lock, kBoundedWait,
                               [&]() { return arrived == 2; });
        });
      })
      .get();
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
}

TEST(ParallelForEach, PerTaskStreamsAreThreadCountInvariant) {
  // The determinism recipe the rest of the stack uses: one stream_seed-ed
  // Rng per item, results written to the item's slot.
  constexpr std::uint64_t kBase = 99;
  constexpr std::size_t kN = 64;
  const auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(kN);
    parallel_for_each(&pool, kN, [&](std::size_t i) {
      Rng rng(stream_seed(kBase, i));
      out[i] = rng.normal() + rng.uniform();
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  const std::vector<double> parallel = run(8);
  EXPECT_EQ(serial, parallel);  // bitwise: same doubles, same slots
}

TEST(StreamSeed, DistinctStreamsGetDistinctSeeds) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t base : {1ULL, 2ULL}) {
    for (std::uint64_t stream = 0; stream < 100; ++stream) {
      seeds.push_back(stream_seed(base, stream));
    }
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // And it is a pure function of (base, stream).
  EXPECT_EQ(stream_seed(7, 3), stream_seed(7, 3));
}

}  // namespace
}  // namespace bofl::runtime
