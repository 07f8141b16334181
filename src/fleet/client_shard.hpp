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
//                      from participations so future churn/state-reset can
//                      advance one without the other
//   energy_uj[i]       lifetime training energy, integer microjoules
//   busy_us[i]         lifetime training wall time, integer microseconds
//   misses[i]          rounds whose effective deadline the client missed
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

/// One round's accounting for one shard; merged across shards in shard
/// order.  Every field is an integer accumulator (modular add) or a max,
/// so the merged result is independent of the shard layout.
struct ShardRoundStats {
  std::uint64_t energy_uj = 0;
  std::uint64_t mbo_energy_uj = 0;
  std::uint64_t busy_us = 0;
  std::uint64_t wall_us = 0;          ///< last counted arrival (max)
  std::uint64_t max_deadline_us = 0;  ///< largest effective deadline (max)
  std::uint64_t queue_peak = 0;       ///< events at round close (max)
  std::uint32_t participants = 0;
  std::uint32_t dropped = 0;
  std::uint32_t missed = 0;
  std::uint32_t stragglers = 0;
  std::uint32_t timed_out = 0;
  std::uint32_t phase1 = 0;
  std::uint32_t phase2 = 0;
  std::uint32_t phase3 = 0;
  // Fleet-scenario population accounting (all zero outside scenario runs).
  std::uint32_t active_clients = 0;   ///< clients present after churn
  std::uint32_t departed = 0;         ///< left the fleet this round
  std::uint32_t rejoined = 0;         ///< returned this round
  std::uint32_t resets = 0;           ///< re-joins that lost their state
  std::uint32_t battery_blocked = 0;  ///< selected but below the watermark

  void merge(const ShardRoundStats& other);
};

/// Run-cumulative per-shard telemetry: the striped-counter design of
/// src/telemetry lifted from per-thread to per-shard.  Each shard's task is
/// the single writer of its own struct; the engine merges all shards on
/// read (end of round / end of run) before touching the global registry.
struct ShardTelemetry {
  std::uint64_t events_pushed = 0;
  std::uint64_t selections = 0;
  std::uint64_t dropouts = 0;
  std::uint64_t deadline_misses = 0;

  void merge(const ShardTelemetry& other);
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
  std::vector<std::uint64_t> energy_uj;
  std::vector<std::uint64_t> busy_us;
  std::vector<std::uint32_t> misses;

  // Fleet-scenario columns, allocated by the engine ONLY when the scenario
  // enables the matching process (so the steady-state bytes/client figure
  // is untouched).  `active` is the churn membership bit; `battery_uj` the
  // remaining per-client energy budget in integer microjoules.
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

  /// This round's accounting and the run-cumulative telemetry.
  ShardRoundStats round_stats;
  ShardTelemetry telemetry;

  /// Bytes held by the SoA columns (capacity, not size) — the numerator of
  /// the bench's bytes/client figure.  Excludes the transient round scratch.
  [[nodiscard]] std::uint64_t soa_bytes() const;

 private:
  runtime::ShardRange range_;
};

}  // namespace bofl::fleet
