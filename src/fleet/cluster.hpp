// Per-cluster canonical cost trajectories.
//
// At fleet scale most clients are near-duplicates: same SoC, same workload
// class.  The fleet engine therefore keeps ONE canonical pace controller per
// cluster — whatever core::make_controller builds for the configured kind,
// running on the cluster's device model with the cluster's own deadline
// stream — and represents every client in the cluster as a replay of the
// canonical per-participation trajectory, scaled by that client's pure-hash
// heterogeneity and jitter factors.  A client that has participated k times
// sits at trajectory entry k; entries are extended lazily to the deepest
// cursor any participant of the upcoming round needs, so extension is a
// pure function of the round's participant set and never depends on shard
// or thread counts.
//
// Entries are quantized to integer microseconds / microjoules.  That is
// what makes the whole engine's cross-shard arithmetic associative: every
// downstream accumulation is integer addition or max, so fleet traces are
// bit-identical at any shard count (see fleet_engine.hpp).
//
// The cluster also hands the fleet-wide ilp::ScheduleCache to a canonical
// BoFL controller, so the steady-state exploitation work of a million
// near-duplicate clients is paid once per distinct round problem.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/bofl_controller.hpp"
#include "faults/fault_injector.hpp"
#include "fleet/fleet_config.hpp"
#include "ilp/schedule_cache.hpp"
#include "priors/handshake.hpp"

namespace bofl::runtime {
class ThreadPool;
}

namespace bofl::fleet {

/// Quantization helpers: the engine's integer units.
[[nodiscard]] std::uint64_t to_micros(Seconds s);
[[nodiscard]] std::uint64_t to_microjoules(Joules j);

class ClusterEngine {
 public:
  /// `spec.model`, `config` and `cache` (nullable) must outlive the
  /// engine (workload switches rebuild the controller from `config`).  When
  /// `injector` (nullable) carries device-level faults, a canonical BoFL
  /// controller runs behind a DeviceFaultChannel keyed on the cluster
  /// index, so storms / clamps / flaky reads hit the whole cluster's
  /// trajectory exactly as they would a single device.  Reference policies
  /// never see device faults.
  ClusterEngine(std::size_t index, const ClusterSpec& spec,
                const FleetConfig& config, ilp::ScheduleCache* cache,
                const faults::FaultInjector* injector);

  /// One canonical participation: what a cluster-median client pays the
  /// k-th time it is selected.
  struct RoundEntry {
    std::uint64_t deadline_us = 0;    ///< assigned round deadline
    std::uint64_t elapsed_us = 0;     ///< training wall time
    std::uint64_t energy_uj = 0;      ///< training energy
    std::uint64_t mbo_energy_uj = 0;  ///< MBO update cost (phases 1–2)
    core::Phase phase = core::Phase::kExploitation;
    /// Pessimistic Eqn. 2 feasibility, evaluated BEFORE the entry ran (the
    /// scenario harness's never-miss precondition): at the worst fault
    /// effect in the deadline window, jobs * T_pess * (1 + margin) fits the
    /// deadline minus the tau + first-job reserve.  Reference policies have
    /// no reserve and no margin: jobs * T(x_max) <= deadline.  An
    /// infeasible entry is allowed to miss; a feasible one never is.
    bool feasible = true;
  };

  /// Ensure at least `entries` trajectory entries exist, scaling any NEWLY
  /// drawn deadline by `deadline_factor` (diurnal pressure; 1 = neutral).
  /// The underlying uniform draw stays strictly sequential in the entry
  /// index, so lazy extension reproduces the eager schedule for every
  /// factor sequence.  Distinct clusters may extend concurrently (each owns
  /// its controller, RNG streams and fault channel; the shared
  /// ScheduleCache is striped and bit-stable under races) — but the SAME
  /// cluster must never be extended from two threads.  Fault episodes raised
  /// during extension are buffered; the engine drains them in cluster-index
  /// order via flush_fault_events() so the telemetry stream stays canonical
  /// regardless of extension order.
  void extend_to(std::size_t entries, double deadline_factor = 1.0);

  /// Emit the fault episodes buffered since the last flush, in the entry
  /// order they occurred.  Serial only: the engine calls this in
  /// cluster-index order after each round's extension fan-out, reproducing
  /// the byte stream serial extension used to emit inline.
  void flush_fault_events();

  /// Hand the canonical controller a pool for its hyperopt/GP/EHVI inner
  /// loops.  Survives switch_workload (re-applied when the controller is
  /// rebuilt).  When control-plane extension itself runs on a pool worker,
  /// those inner loops share their items with whichever workers are idle —
  /// same bits either way.
  void set_parallel_pool(runtime::ThreadPool* pool);

  /// Non-stationary workload switch: from this round on, the cluster
  /// trains `profile`.  REPLACES the canonical controller (fresh
  /// exploration on a generation-derived seed) and drops the old
  /// workload's trajectory — the next extend_to() replays the new
  /// controller from entry 0, so clients mid-replay land on the new
  /// generation's costs at their current participation depth.  With a
  /// knowledge store attached, the new controller re-admits the prior of
  /// the NEW (device, workload) cluster key — a mispredicting prior then
  /// demotes through the usual drift path.
  void switch_workload(const device::WorkloadProfile& profile);

  /// Number of workload switches applied so far; entry costs and the
  /// Pareto front are only comparable within one generation.
  [[nodiscard]] std::size_t generation() const { return generation_; }

  [[nodiscard]] const RoundEntry& entry(std::size_t k) const {
    return trajectory_[k];
  }
  [[nodiscard]] std::size_t size() const { return trajectory_.size(); }

  [[nodiscard]] std::size_t index() const { return index_; }
  /// The cluster's device model and the workload it trains now (the
  /// profile changes with switch_workload).
  [[nodiscard]] const device::DeviceModel& model() const { return *model_; }
  [[nodiscard]] const device::WorkloadProfile& profile() const {
    return profile_;
  }

  /// Trajectory entries spent outside exploitation (phases 1–2) — the
  /// knowledge plane's headline metric: warm-started clusters collapse
  /// this to the verification pass.
  [[nodiscard]] std::size_t exploration_entries() const {
    return exploration_entries_;
  }
  /// The prior policy the store actually granted at construction (kCold
  /// when no store was attached, the cluster was unknown, or admission
  /// declined).
  [[nodiscard]] priors::PriorPolicy applied_policy() const {
    return applied_policy_;
  }
  /// The live canonical controller when it is BoFL (nullptr for reference
  /// policies).  The scenario harness samples its observed Pareto front per
  /// round; the pointer is invalidated by switch_workload.
  [[nodiscard]] const core::BoflController* canonical_controller() const {
    return bofl_;
  }

  /// What the canonical BoFL controller tells the knowledge store at end of
  /// run (priors::prepare_publish); an empty batch for reference policies.
  /// Const and store-free, so the engine prepares batches for distinct
  /// clusters in parallel and applies them serially in cluster-index order.
  [[nodiscard]] priors::PublishBatch prepare_publish() const;

 private:
  void append_entry(double deadline_factor);
  void init_controller();

  std::size_t index_ = 0;
  const device::DeviceModel* model_ = nullptr;
  device::WorkloadProfile profile_;
  std::int64_t jobs_per_round_ = 0;
  Seconds t_min_{0.0};
  Rng deadline_rng_;
  double deadline_ratio_ = 8.0;
  ilp::ScheduleCache* cache_ = nullptr;  ///< non-owning, optional
  /// The engine's config (stable for the engine's lifetime): workload
  /// switches rebuild the canonical controller from it.
  const FleetConfig* config_ = nullptr;
  /// Device fault channel of a canonical BoFL controller (nullptr for
  /// reference policies and fault-free runs).
  std::unique_ptr<faults::DeviceFaultChannel> channel_;
  /// The canonical controller, of config_->controller's kind.
  std::unique_ptr<core::PaceController> controller_;
  /// controller_ when it is BoFL, else nullptr (non-owning).
  core::BoflController* bofl_ = nullptr;
  /// Fault episodes raised while extending, awaiting the engine's ordered
  /// flush.  Only the extending thread appends; only the (serial) flush
  /// drains — never both at once.
  std::vector<faults::FaultEvent> pending_fault_events_;
  /// Pool handed to the canonical controller's inner loops; survives
  /// workload switches (init_controller re-applies it).
  runtime::ThreadPool* pool_ = nullptr;
  std::vector<RoundEntry> trajectory_;
  std::size_t exploration_entries_ = 0;
  std::size_t generation_ = 0;
  priors::PriorPolicy applied_policy_ = priors::PriorPolicy::kCold;
};

}  // namespace bofl::fleet
