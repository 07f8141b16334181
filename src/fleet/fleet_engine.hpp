// The sharded fleet engine: 10^5–10^6 BoFL clients on one machine.
//
// Architecture (DESIGN.md §6f):
//   * Client state lives in struct-of-arrays shards (client_shard.hpp),
//     18 bytes per client, one contiguous id range per shard.  Each shard
//     tallies its part of the round in a FleetRoundStats, the one record
//     of a round, which the engine merges in shard order.
//   * Each cluster (device model × workload) runs ONE canonical pace
//     controller whose per-participation trajectory all cluster members
//     replay, scaled by pure-hash per-client heterogeneity and jitter
//     (cluster.hpp).  Steady-state per-client cost is O(1); controller
//     work is O(clusters), not O(clients).
//   * Round progression is event-driven: every participant appends one
//     completion event to its shard's buffer; one linear fold per shard
//     closes the round and replaces per-client polling (event_queue.hpp).
//   * Each round is three parallel shard passes with serial merges between:
//       pass 1  64-client blocks: branch-free selection mask,   (parallel)
//               then dropout/battery gates + needed trajectory
//               depth for its set bits only
//       —— extend cluster trajectories, draw deadline jitter    (serial)
//       pass 2  per-client costs, event pushes, SoA updates     (parallel)
//       —— straggler cutoff from the fleet-wide max deadline    (serial)
//       pass 3  round close → round wall / timed-out counts     (parallel)
//       —— stats merge, telemetry                               (serial)
//
// Determinism: every per-client draw is a pure hash of (seed, domain tag,
// ids) — never of shard or thread identity — and every cross-shard
// reduction is an integer add (modular, associative) or max, over values
// quantized to whole microseconds / microjoules.  Fleet traces are
// therefore bit-identical at any shard count and any --threads; the
// fleet_determinism tests pin this down, TSan keeps it honest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "device/device_model.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/client_shard.hpp"
#include "fleet/cluster.hpp"
#include "fleet/fleet_config.hpp"
#include "ilp/schedule_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::fleet {

struct FleetResult {
  std::vector<FleetRoundStats> rounds;
  /// FNV-1a over every round's integer fields in round order — one number
  /// that must match across shard/thread counts.
  std::uint64_t trace_hash = 0;
  std::uint64_t soa_bytes = 0;      ///< SoA footprint across all shards
  std::uint64_t peak_rss_bytes = 0; ///< process VmHWM after the run
  /// Deepest any shard's event queue ever got.  Observability only — queue
  /// depth tracks per-shard cohort size, so unlike everything in `rounds`
  /// it legitimately depends on the shard layout and is NOT in trace_hash.
  std::uint64_t max_queue_depth = 0;
  /// Knowledge-plane headline metrics (derived from per-cluster counters
  /// after the round loop, so — like max_queue_depth — NOT in trace_hash):
  /// total canonical trajectory entries spent outside exploitation, and how
  /// many clusters started from an admitted prior.
  std::uint64_t exploration_rounds = 0;
  std::uint32_t warm_clusters = 0;
  /// Wall-time split of this run() call: the cluster control plane (task
  /// switches, needed-depth reduction, trajectory extension, fault-event
  /// flush, end-of-run prior distillation) vs everything else (the shard
  /// data plane + merges).  Timing is observability — host-dependent, so
  /// (like max_queue_depth) NOT in trace_hash and not part of equality.
  double control_plane_ms = 0.0;
  double data_plane_ms = 0.0;  ///< select + cost + close + merge
  /// The data plane's ledger, one entry per pass: pass 1 (churn, battery,
  /// cohort selection), pass 2 (per-client costs and event pushes, plus
  /// the round's deadline-jitter draw), pass 3 (round close and cursor
  /// resync), and the serial cross-shard reductions (straggler-cutoff
  /// reference and the shard-order stats merge).
  double select_ms = 0.0;
  double cost_ms = 0.0;
  double close_ms = 0.0;
  double merge_ms = 0.0;
  std::size_t num_clients = 0;
  std::size_t num_shards = 0;
  std::size_t num_clusters = 0;

  [[nodiscard]] double total_energy_j() const;
  [[nodiscard]] double total_mbo_energy_j() const;
  [[nodiscard]] std::uint64_t total_participants() const;
  // Scenario population totals (all zero for scenario-free runs).
  [[nodiscard]] std::uint64_t total_departed() const;
  [[nodiscard]] std::uint64_t total_rejoined() const;
  [[nodiscard]] std::uint64_t total_resets() const;
  [[nodiscard]] std::uint64_t total_battery_blocked() const;
  [[nodiscard]] double miss_rate() const;     ///< misses / participations
  [[nodiscard]] double timeout_rate() const;  ///< timed-out / participations
  /// SoA bytes per client — the flat-memory figure the bench reports.
  [[nodiscard]] double bytes_per_client() const;
  /// Fraction of participations replaying an exploitation-phase entry.
  [[nodiscard]] double phase3_fraction() const;
};

/// The engine's trace hash, as a free function: FNV-1a over every round's
/// integer fields in round order.  `scenario_fields` must match whether the
/// producing engine ran with a scenario attached (scenario-free traces keep
/// the historical field set so their golden hashes survive).  Exposed so
/// the scenario harness can hash a stepped run's concatenated rounds and
/// compare it against a single-shot run's FleetResult::trace_hash.
[[nodiscard]] std::uint64_t fold_trace_hash(
    const std::vector<FleetRoundStats>& rounds, bool scenario_fields);

class FleetEngine {
 public:
  /// Builds shards, clusters and the shared schedule cache.  Throws on an
  /// invalid config (no clients, zero-weight mix, > 65535 clusters).
  explicit FleetEngine(FleetConfig config);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Run config.rounds rounds.  Reentrant across calls: a second run()
  /// continues the fleet from its current state — client cursors advance
  /// AND the absolute round index keeps counting, so N stepped calls of
  /// one round replay exactly the rounds of one N-round call (the
  /// scenario harness samples per-round cluster state this way).
  [[nodiscard]] FleetResult run();

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] std::size_t num_clusters() const { return clusters_.size(); }
  [[nodiscard]] const ClusterEngine& cluster(std::size_t i) const {
    return *clusters_[i];
  }
  /// Total SoA footprint (all shards).
  [[nodiscard]] std::uint64_t soa_bytes() const;

 private:
  /// Metric handles resolved once from the global registry (all null when
  /// telemetry is off).
  struct Telemetry {
    telemetry::Counter* rounds = nullptr;
    telemetry::Counter* participants = nullptr;
    telemetry::Counter* dropouts = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* stragglers = nullptr;
    telemetry::Counter* timed_out = nullptr;
    telemetry::Gauge* clients = nullptr;
    telemetry::Gauge* shards = nullptr;
    telemetry::Gauge* soa_bytes = nullptr;
    telemetry::Gauge* peak_rss = nullptr;
    telemetry::Histogram* queue_depth = nullptr;
    telemetry::Histogram* round_energy = nullptr;
    telemetry::Histogram* control_plane_ms = nullptr;
    // Fleet-scenario population metrics (registered only when a scenario
    // is attached).
    telemetry::Counter* departed = nullptr;
    telemetry::Counter* rejoined = nullptr;
    telemetry::Counter* state_resets = nullptr;
    telemetry::Counter* battery_blocked = nullptr;
    telemetry::Counter* task_switches = nullptr;
    telemetry::Gauge* active_clients = nullptr;
  };

  /// Runs one round and adds its wall time to `timing`'s control-plane
  /// and data-plane ledger fields.  Returns the shards' merged stats: the
  /// fleet's record of the round and its deepest shard queue.
  [[nodiscard]] ShardRoundStats run_round(std::int64_t round,
                                          runtime::ThreadPool* pool,
                                          FleetResult& timing);
  void publish_round(const FleetRoundStats& stats);

  FleetConfig config_;
  /// Device models backing the default cluster mix (kept alive here when
  /// the caller passed an empty `config.clusters`).
  std::vector<device::DeviceModel> owned_models_;
  std::vector<ClusterSpec> specs_;
  std::vector<double> cluster_cdf_;  ///< cumulative normalized weights
  std::unique_ptr<ilp::ScheduleCache> cache_;
  std::optional<faults::FaultInjector> injector_;
  std::vector<std::unique_ptr<ClusterEngine>> clusters_;
  std::vector<ClientShard> shards_;
  Telemetry tel_;
  /// Absolute round cursor: the next round index run() will execute.
  std::int64_t next_round_ = 0;
  // Battery budget in the engine's integer units (0 when the scenario has
  // no battery process).
  std::uint64_t battery_capacity_uj_ = 0;
  std::uint64_t battery_recharge_uj_ = 0;
  std::uint64_t battery_watermark_uj_ = 0;
};

}  // namespace bofl::fleet
