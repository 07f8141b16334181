#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bofl::runtime {

namespace {

/// Which pool (if any) owns the current thread.  Lets parallel_for_each
/// count a worker that opens a region as one of the region's threads.
thread_local const ThreadPool* t_owning_pool = nullptr;

}  // namespace

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = hardware_threads();
  }
  // A negative flag value cast to size_t lands here as ~2^64; reject it
  // with a real message instead of dying inside vector::reserve.
  BOFL_REQUIRE(num_threads <= 65536,
               "thread count is implausibly large (negative value?)");
  if (telemetry::Registry* reg = telemetry::global_registry()) {
    telemetry_.tasks_submitted = &reg->counter("runtime.tasks_submitted");
    telemetry_.tasks_executed = &reg->counter("runtime.tasks_executed");
    telemetry_.task_seconds = &reg->histogram("runtime.task_seconds");
    telemetry_.queue_depth = &reg->histogram(
        "runtime.queue_depth", telemetry::exponential_buckets(1.0, 2.0, 16));
    telemetry_.utilization = &reg->gauge("runtime.pool_utilization");
    reg->gauge("runtime.workers").set(static_cast<double>(num_threads));
    created_ = std::chrono::steady_clock::now();
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  if (telemetry_.utilization != nullptr) {
    // Fraction of worker-seconds spent inside tasks over the pool lifetime
    // (last-created pool wins when several pools share a registry).
    const std::chrono::duration<double> alive =
        std::chrono::steady_clock::now() - created_;
    const double capacity =
        static_cast<double>(workers_.size()) * alive.count();
    if (capacity > 0.0) {
      telemetry_.utilization->set(
          busy_seconds_.load(std::memory_order_relaxed) / capacity);
    }
  }
}

bool ThreadPool::on_worker_thread() const { return t_owning_pool == this; }

void ThreadPool::post(std::function<void()> task) {
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    BOFL_REQUIRE(!stop_, "submit() on a stopped ThreadPool");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  cv_.notify_one();
  if (telemetry_.queue_depth != nullptr) {
    telemetry_.queue_depth->observe(static_cast<double>(depth));
    telemetry_.tasks_submitted->add(1);
  }
}

void ThreadPool::worker_loop() {
  t_owning_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (telemetry_.task_seconds != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      task();  // never throws: submit() wraps a packaged_task
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      telemetry_.task_seconds->observe(elapsed.count());
      telemetry_.tasks_executed->add(1);
      telemetry::detail::atomic_add(busy_seconds_, elapsed.count());
    } else {
      task();
    }
  }
}

}  // namespace bofl::runtime
