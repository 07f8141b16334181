#include "ilp/schedule_cache.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::ilp {

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (w >> (8 * byte)) & 0xffULL;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

void count(const char* name, std::uint64_t n = 1) {
  if (telemetry::Registry* reg = telemetry::global_registry()) {
    reg->counter(name).add(n);
  }
}

}  // namespace

ScheduleCache::Key ScheduleCache::make_key(
    const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
    double deadline_seconds, const IlpOptions& options) const {
  Key key;
  key.words.reserve(2 * pruned.size() + 4);
  for (const ConfigProfile& p : pruned) {
    key.words.push_back(bits_of(p.energy_per_job));
    key.words.push_back(bits_of(p.latency_per_job));
  }
  key.words.push_back(static_cast<std::uint64_t>(num_jobs));
  const double quantum = options_.deadline_quantum;
  key.words.push_back(quantum > 0.0
                          ? bits_of(std::floor(deadline_seconds / quantum))
                          : bits_of(deadline_seconds));
  key.words.push_back(static_cast<std::uint64_t>(options.max_nodes));
  key.words.push_back(bits_of(options.relative_gap));
  key.hash = fnv1a(key.words);
  return key;
}

Schedule ScheduleCache::solve(const std::vector<ConfigProfile>& profiles,
                              std::int64_t num_jobs, double deadline_seconds,
                              const IlpOptions& options) {
  if (options.disable_cache) {
    return solve_round_schedule(profiles, num_jobs, deadline_seconds, options);
  }
  // Mirror solve_round_schedule's prologue so validation still covers the
  // profiles the prune would discard.
  BOFL_REQUIRE(!profiles.empty(), "need at least one configuration profile");
  BOFL_REQUIRE(num_jobs >= 0, "job count must be non-negative");
  BOFL_REQUIRE(deadline_seconds >= 0.0, "deadline must be non-negative");
  for (const ConfigProfile& p : profiles) {
    BOFL_REQUIRE(p.energy_per_job >= 0.0 && p.latency_per_job > 0.0,
                 "profiles need non-negative energy and positive latency");
  }
  if (num_jobs == 0) {
    Schedule empty;
    empty.feasible = true;
    return empty;
  }
  const PrunedProfiles pruned = prune_dominated_profiles(profiles);
  Schedule schedule =
      solve_pruned(pruned.profiles, num_jobs, deadline_seconds, options);
  for (auto& assignment : schedule.assignments) {
    assignment.first = pruned.kept[assignment.first];
  }
  return schedule;
}

std::unique_lock<std::mutex> ScheduleCache::lock_stripe(Stripe& stripe) {
  std::unique_lock<std::mutex> lock(stripe.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    stripe.waits.fetch_add(1, std::memory_order_relaxed);
    count("ilp.cache_stripe_waits");
    lock.lock();
  }
  return lock;
}

bool ScheduleCache::wipe_if_full() {
  // Take every stripe lock in index order (deadlock-free: this is the only
  // multi-stripe path), then re-check capacity — a concurrent wipe may have
  // already emptied the table between the caller's check and here.
  std::array<std::unique_lock<std::mutex>, kStripeCount> locks;
  for (std::size_t s = 0; s < kStripeCount; ++s) {
    locks[s] = lock_stripe(stripes_[s]);
  }
  if (total_entries_.load(std::memory_order_relaxed) < options_.max_entries) {
    return false;
  }
  for (Stripe& stripe : stripes_) {
    stripe.entries.clear();
    stripe.count.store(0, std::memory_order_relaxed);
  }
  total_entries_.store(0, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  count("ilp.cache_evictions");
  return true;
}

Schedule ScheduleCache::solve_pruned(const std::vector<ConfigProfile>& pruned,
                                     std::int64_t num_jobs,
                                     double deadline_seconds,
                                     const IlpOptions& options) {
  // A caller-supplied warm start steers the search itself; don't mix such
  // solves into (or serve them from) the shared memo.
  if (options.disable_cache || !options.warm_start.empty() || num_jobs == 0) {
    return solve_round_schedule_pruned(pruned, num_jobs, deadline_seconds,
                                       options);
  }
  const Key key = make_key(pruned, num_jobs, deadline_seconds, options);
  Stripe& stripe = stripe_for(key);

  IlpOptions tuned = options;
  bool warm_started = false;
  {
    std::unique_lock<std::mutex> lock = lock_stripe(stripe);
    auto it = stripe.entries.find(key);
    if (it != stripe.entries.end()) {
      stripe.hits.fetch_add(1, std::memory_order_relaxed);
      count("ilp.cache_hit");
      return it->second;
    }
  }
  stripe.misses.fetch_add(1, std::memory_order_relaxed);
  count("ilp.cache_miss");
  if (options_.warm_start_resolves) {
    std::lock_guard<std::mutex> warm_lock(warm_mutex_);
    if (last_num_jobs_ == num_jobs && last_counts_.size() == pruned.size()) {
      tuned.warm_start = last_counts_;  // validated inside solve_ilp
      warm_started = true;
      warm_starts_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (warm_started) {
    count("ilp.cache_warm_start");
  }

  // Solve outside any lock: distinct round problems from different threads
  // proceed in parallel.  A same-key race costs one duplicate solve of a
  // deterministic problem — both threads store identical bits.
  const Schedule schedule =
      solve_round_schedule_pruned(pruned, num_jobs, deadline_seconds, tuned);

  if (total_entries_.load(std::memory_order_relaxed) >= options_.max_entries) {
    wipe_if_full();
  }
  {
    std::unique_lock<std::mutex> lock = lock_stripe(stripe);
    auto [it, inserted] = stripe.entries.emplace(key, schedule);
    (void)it;
    if (inserted) {
      stripe.count.fetch_add(1, std::memory_order_relaxed);
      total_entries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (options_.warm_start_resolves && schedule.feasible) {
    std::lock_guard<std::mutex> warm_lock(warm_mutex_);
    last_counts_.assign(pruned.size(), 0);
    for (const auto& [index, jobs] : schedule.assignments) {
      last_counts_[index] = jobs;
    }
    last_num_jobs_ = num_jobs;
  }
  return schedule;
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats stats;
  for (const Stripe& stripe : stripes_) {
    stats.hits += stripe.hits.load(std::memory_order_relaxed);
    stats.misses += stripe.misses.load(std::memory_order_relaxed);
    stats.stripe_waits += stripe.waits.load(std::memory_order_relaxed);
  }
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.warm_starts = warm_starts_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t ScheduleCache::size() const {
  std::size_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

void ScheduleCache::clear() {
  std::array<std::unique_lock<std::mutex>, kStripeCount> locks;
  for (std::size_t s = 0; s < kStripeCount; ++s) {
    locks[s] = lock_stripe(stripes_[s]);
  }
  for (Stripe& stripe : stripes_) {
    stripe.entries.clear();
    stripe.count.store(0, std::memory_order_relaxed);
  }
  total_entries_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> warm_lock(warm_mutex_);
  last_counts_.clear();
  last_num_jobs_ = -1;
}

}  // namespace bofl::ilp
