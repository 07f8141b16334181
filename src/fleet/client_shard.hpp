// Struct-of-arrays client state for the sharded fleet engine.
//
// The per-object fl::Client (model replica + dataset shard + controller,
// several MB each) cannot scale to 10^6 clients.  At fleet scale a client
// IS its row across a handful of parallel arrays — the device::FlatPerfTable
// SoA pattern from PR 5 applied to the whole client:
//
//   cluster[i]         which cluster trajectory the client replays — the
//                      client's Pareto-front handle (cluster.hpp)
//   participations[i]  trajectory cursor: how often it has been selected
//   rng_cursor[i]      per-client draw counter keying the jitter stream
//                      (stream_seed(client_seed, cursor)); kept separate
//                      from participations so a churn reset can rewind one
//                      without the other
//   speed[i]           lifetime speed factor (the client's silicon), drawn
//                      on first participation; 0.0 = not drawn yet
//
// 18 B/client; 10 B when heterogeneity is off and `speed` is not allocated.
//
// A shard owns a contiguous client-id range (runtime/sharding.hpp), its own
// completion-event buffer (appended in pass 2, folded by close_round in
// pass 3), and its own round scratch, so the per-round fan-out touches each
// shard from exactly one task — single-writer, no locks.
// All cross-shard reductions are integer adds and maxes (associative +
// commutative), so merged fleet stats are bit-identical at any shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/event_queue.hpp"
#include "runtime/sharding.hpp"

namespace bofl::fleet {

/// One fleet round in the engine's exact integer units: the one record of a
/// round, kept per shard and merged in shard order (integer adds and maxes,
/// so independent of the shard layout).  Equality is bitwise; the field
/// order is the trace-hash fold order (fold_trace_hash).
struct FleetRoundStats {
  std::int64_t round = 0;             ///< absolute index (not merged)
  std::uint64_t energy_uj = 0;        ///< cohort training energy
  std::uint64_t mbo_energy_uj = 0;    ///< cohort MBO update energy
  std::uint64_t busy_us = 0;          ///< summed cohort training time
  std::uint64_t wall_us = 0;          ///< round wall (last counted arrival)
  std::uint64_t deadline_ref_us = 0;  ///< largest effective cohort deadline
  std::uint32_t participants = 0;
  std::uint32_t dropped = 0;
  std::uint32_t missed = 0;     ///< training exceeded the effective deadline
  std::uint32_t stragglers = 0;
  std::uint32_t timed_out = 0;  ///< reports past the straggler cutoff
  std::uint32_t phase1 = 0;     ///< participants whose entry was explored…
  std::uint32_t phase2 = 0;     ///< …under the canonical controller's phase
  std::uint32_t phase3 = 0;
  // Fleet-scenario population fields.  Only folded into trace_hash when a
  // scenario is attached, so scenario-free traces keep their historical
  // hashes (fleet_golden_hash_test).
  std::uint32_t active_clients = 0;   ///< clients present after churn
  std::uint32_t departed = 0;         ///< left the fleet this round
  std::uint32_t rejoined = 0;         ///< returned this round
  std::uint32_t resets = 0;           ///< re-joins that lost their state
  std::uint32_t battery_blocked = 0;  ///< selected but below the watermark

  /// Counters add, wall_us and deadline_ref_us take the max, round stays.
  void merge(const FleetRoundStats& other);

  [[nodiscard]] double energy_j() const { return 1e-6 * double(energy_uj); }
  [[nodiscard]] double mbo_energy_j() const {
    return 1e-6 * double(mbo_energy_uj);
  }
  [[nodiscard]] double wall_s() const { return 1e-6 * double(wall_us); }

  friend bool operator==(const FleetRoundStats&,
                         const FleetRoundStats&) = default;
};

/// One shard's share of a round, plus the shard-local queue depth.  Queue
/// depth tracks the shard's cohort size, so it depends on the shard layout
/// and never enters the fleet record.
struct ShardRoundStats : FleetRoundStats {
  std::uint64_t queue_peak = 0;  ///< events at round close (max)

  void merge(const ShardRoundStats& other);
};

class ClientShard {
 public:
  /// Allocates the SoA arrays for `range` (cluster assignment is filled by
  /// the engine, which owns the client→cluster hash).
  explicit ClientShard(runtime::ShardRange range);

  [[nodiscard]] const runtime::ShardRange& range() const { return range_; }
  [[nodiscard]] std::size_t size() const { return range_.size(); }

  // SoA columns, indexed by local offset (client id - range().begin).
  std::vector<std::uint16_t> cluster;
  std::vector<std::uint32_t> participations;
  std::vector<std::uint32_t> rng_cursor;

  // Columns the engine allocates ONLY when the matching process is enabled
  // (so a run pays for what it models).  `speed` caches the heterogeneity
  // draw; `active` is the churn membership bit; `battery_uj` the remaining
  // per-client energy budget in integer microjoules.
  std::vector<double> speed;
  std::vector<std::uint8_t> active;
  std::vector<std::uint64_t> battery_uj;

  /// Per-shard completion-event buffer, emptied by each round's close and
  /// reused across rounds.
  CompletionQueue<std::uint64_t> queue;

  /// Round scratch (single-writer, reused): the local offsets selected this
  /// round, the deepest trajectory entry needed per cluster, and the ids of
  /// clients whose report timed out (their replay cursor rolls back).
  std::vector<std::uint32_t> cohort;
  std::vector<std::uint32_t> needed_entries;
  std::vector<std::uint64_t> timed_out_clients;

  /// This round's accounting.
  ShardRoundStats round_stats;

  /// Bytes held by the SoA columns (capacity, not size) — the numerator of
  /// the bench's bytes/client figure.  Excludes the transient round scratch.
  [[nodiscard]] std::uint64_t soa_bytes() const;

 private:
  runtime::ShardRange range_;
};

}  // namespace bofl::fleet
