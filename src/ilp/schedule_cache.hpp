// Memoization for the per-round exploitation ILP (paper Eqn. 1).
//
// In steady state (~90 % of FL rounds are phase-3 exploitation) the round
// problem barely changes: a cohort of clients sharing one device model and
// task converges onto the same Pareto set, job count and deadline, yet
// every client re-runs the same branch-and-bound each round.  ScheduleCache
// memoizes solve_round_schedule keyed on the exact bits of the canonical
// (dominance-pruned) profile set x job count x deadline x solver options,
// so each distinct round problem is solved once per fleet.
//
// Bit-identity: a hit returns the stored Schedule, which a fresh solve of
// the same key would reproduce bit-for-bit (the solver is deterministic and
// keys compare exact doubles), so enabling the cache never changes any
// simulation output — asserted cache-on vs cache-off, serial vs pooled, by
// tests/scenarios.  The two opt-in knobs that trade this away are
// documented on ScheduleCacheOptions.
//
// Thread safety: all methods may be called concurrently (fl::Simulation
// shares one instance across its client threads, and the fleet engine's
// parallel control plane shares one across concurrently-extending
// clusters).  The table is striped: each key hashes to one of
// kStripeCount independent (mutex, map) stripes, so clusters solving
// distinct round problems almost never serialize on a lock.  Misses solve
// OUTSIDE any lock so distinct problems solve in parallel.  If two
// threads race on the same key both solve it and store the same bits —
// wasted work, never wrong results.  Stats are relaxed atomics per
// stripe, summed on read, so telemetry scrapes never contend with solves.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ilp/schedule_solver.hpp"

namespace bofl::ilp {

struct ScheduleCacheOptions {
  /// Entry cap; reaching it wipes the cache (steady-state keys re-insert
  /// within a round, and a wipe can only cost re-solves, never wrong bits).
  std::size_t max_entries = 4096;
  /// 0 (default): deadlines are keyed on their exact bits — required for
  /// the bit-identity guarantee.  > 0: deadlines are bucketed to
  /// floor(deadline / quantum) for keying, so rounds whose deadlines differ
  /// by less than one quantum share an entry (the hit returns the schedule
  /// solved for the FIRST deadline seen in the bucket).  Raises hit rates
  /// under drifting deadlines at the cost of exactness; leave at 0 unless
  /// the deadline slack dwarfs the quantum.
  double deadline_quantum = 0.0;
  /// Opt-in: seed each miss's branch-and-bound incumbent with the most
  /// recently solved schedule (when its shape fits the new problem).  This
  /// SKIPS the solver's own O(k^2) two-profile warm start and, under a
  /// nonzero relative_gap, a different incumbent can change which
  /// near-optimal schedule is certified — so re-solves are no longer
  /// bit-identical to cold solves and results may depend on solve order.
  /// Off by default; never enabled by the simulation paths.
  bool warm_start_resolves = false;
};

class ScheduleCache {
 public:
  explicit ScheduleCache(ScheduleCacheOptions options = {})
      : options_(options) {}

  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  /// Drop-in replacement for solve_round_schedule (same contract, same
  /// bits).  Prunes dominated profiles, consults the memo on the canonical
  /// set, and maps assignment indices back to `profiles`.
  [[nodiscard]] Schedule solve(const std::vector<ConfigProfile>& profiles,
                               std::int64_t num_jobs, double deadline_seconds,
                               const IlpOptions& options = {});

  /// Memoized solve_round_schedule_pruned: `pruned` MUST already be
  /// dominance-free (see that function's contract); assignment indices
  /// refer to `pruned`.  This is the hot entry — BoflController keeps its
  /// Pareto set pruned per version and calls this directly.
  [[nodiscard]] Schedule solve_pruned(
      const std::vector<ConfigProfile>& pruned, std::int64_t num_jobs,
      double deadline_seconds, const IlpOptions& options = {});

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;     ///< whole-cache wipes at max_entries
    std::uint64_t warm_starts = 0;   ///< misses seeded by warm_start_resolves
    std::uint64_t stripe_waits = 0;  ///< lock acquisitions that had to block
  };
  /// Lock-free: sums the per-stripe relaxed atomics.  Exact once the cache
  /// is quiescent; during concurrent solves a scrape may see a count that
  /// is mid-update by one, never torn.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Number of independently-locked stripes (fixed, power of two).
  static constexpr std::size_t kStripeCount = 16;

 private:
  struct Key {
    /// Exact bit patterns: per profile (energy, latency), then job count,
    /// the (possibly bucketed) deadline word, and the solver options that
    /// steer the search (max_nodes, relative_gap).
    /// config_id is deliberately excluded — assignments are positional and
    /// the solver never reads it.
    std::vector<std::uint64_t> words;
    std::uint64_t hash = 0;
    bool operator==(const Key& other) const { return words == other.words; }
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      return static_cast<std::size_t>(key.hash);
    }
  };

  [[nodiscard]] Key make_key(const std::vector<ConfigProfile>& pruned,
                             std::int64_t num_jobs, double deadline_seconds,
                             const IlpOptions& options) const;

  /// One lock + map per stripe; stats are relaxed atomics so stats()/size()
  /// never take a lock.  Keys land on the stripe named by the TOP bits of
  /// their FNV-1a hash — the map itself consumes the low bits, so stripe
  /// choice and in-stripe bucketing stay independent.
  struct Stripe {
    std::mutex mutex;
    std::unordered_map<Key, Schedule, KeyHash> entries;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> waits{0};
    std::atomic<std::size_t> count{0};
  };

  [[nodiscard]] Stripe& stripe_for(const Key& key) const {
    return stripes_[static_cast<std::size_t>(key.hash >> 60) %
                    kStripeCount];
  }
  /// Locks `stripe.mutex`, counting the acquisition as a stripe wait (both
  /// in stripe.waits and the ilp.cache_stripe_waits counter) when the lock
  /// was contended.
  static std::unique_lock<std::mutex> lock_stripe(Stripe& stripe);
  /// Wipes every stripe if the approximate total is still at/over capacity
  /// once all stripe locks are held.  Returns true if a wipe happened.
  bool wipe_if_full();

  ScheduleCacheOptions options_;
  mutable std::array<Stripe, kStripeCount> stripes_;
  /// Approximate live-entry total driving the capacity wipe; exact when
  /// quiescent, may lag by in-flight inserts under contention.
  std::atomic<std::size_t> total_entries_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> warm_starts_{0};
  /// warm_start_resolves state: counts of the most recent pruned-space
  /// solve, reused as the next miss's incumbent when shapes line up.
  /// Guarded by its own mutex — the opt-in knob is inherently
  /// order-dependent, so contention here is irrelevant to the default path.
  mutable std::mutex warm_mutex_;
  std::vector<std::int64_t> last_counts_;
  std::int64_t last_num_jobs_ = -1;
};

}  // namespace bofl::ilp
