// Configuration of the sharded fleet engine (src/fleet): what population to
// simulate, how it clusters onto device/workload classes, and how the
// engine shards and parallelizes.
//
// See fleet_engine.hpp for the engine itself and DESIGN.md §6f for the
// shard layout, event-queue ordering rule and RNG domain scheme.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/controller_factory.hpp"
#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fleet_scenario.hpp"
#include "priors/prior_policy.hpp"

namespace bofl::priors {
class KnowledgeStore;
}

namespace bofl::fleet {

/// One fleet cluster: a population slice sharing a device model and
/// workload (the paper's "same SoC, same task" cohort).  Clients are
/// assigned to clusters by a weighted pure-hash draw on their id, so the
/// assignment is independent of shard and thread counts.
struct ClusterSpec {
  /// Non-owning; must outlive the engine.
  const device::DeviceModel* model = nullptr;
  device::WorkloadProfile profile = device::vit_profile();
  /// Relative share of the population landing in this cluster.
  double weight = 1.0;
};

struct FleetConfig {
  std::size_t num_clients = 100'000;
  std::int64_t rounds = 100;
  /// Per-round participation probability: each client joins a round with
  /// this probability (independent pure-hash draw), the fleet-scale analogue
  /// of a fixed cohort size.  Expected cohort = fraction * num_clients.
  double cohort_fraction = 0.01;
  std::int64_t jobs_per_round = 60;
  /// Round deadlines per cluster trajectory entry: uniform in
  /// [T_min, ratio * T_min] (the paper's §6.1 protocol).  Fleet runs need
  /// >= ~8 to reach steady-state exploitation (the PR 5 finding; 2.0 keeps
  /// clients stuck in exploration).
  double deadline_ratio = 8.0;
  std::uint64_t seed = 1;
  /// The pace-control policy of every cluster's canonical controller (built
  /// by core::make_controller; see cluster.hpp).
  core::ControllerKind controller = core::ControllerKind::kBofl;

  /// Shard count; 0 = runtime::resolve_shard_count (enough shards to keep
  /// every worker busy).  Results are bit-identical for every value.
  std::size_t shards = 0;
  /// Worker threads for the per-round shard fan-out and the cluster
  /// control plane; 0 = one per hardware thread, 1 = serial.  Bit-identical
  /// for every value.
  std::size_t threads = 0;

  /// Population heterogeneity: per-client silicon/binning speed factor,
  /// lognormal with this coefficient of variation around the cluster's
  /// canonical device (latency and energy scale together — the unit is
  /// slower, not differently shaped).  0 = perfectly uniform cluster.
  double heterogeneity_cv = 0.08;
  /// Per-(client, participation) execution jitter (background load), as a
  /// lognormal CV applied to that round's latency and energy.
  double round_noise_cv = 0.01;

  /// Server-side straggler handling: wait at most this multiple of the
  /// round's reference deadline (the cohort's largest effective deadline)
  /// before closing the round; late reports count as timed out.  0 = wait
  /// for every report.
  double straggler_timeout = 0.0;

  /// FL-level fault injection (stragglers, dropouts, deadline jitter) is
  /// drawn per (round, client) through the pure-hash FaultInjector queries;
  /// device-level kinds perturb each cluster's canonical trajectory through
  /// one DeviceFaultChannel per cluster.  Unset = clean run.
  std::optional<faults::FaultPlan> fault_plan;

  /// Fleet-population scenario (churn / diurnal waves / task switches /
  /// battery budgets — see faults/fleet_scenario.hpp).  Unset = steady
  /// population, bit-identical to pre-scenario engines.  A scenario with an
  /// embedded fault plan requires `fault_plan` to stay unset (the engine
  /// refuses ambiguous double fault sources).
  std::optional<faults::FleetScenario> scenario;

  /// The population mix; empty = one AGX/ViT cluster (caller must keep the
  /// referenced DeviceModels alive).
  std::vector<ClusterSpec> clusters;

  /// Fleet knowledge plane (src/priors).  When set, each cluster's
  /// canonical controller asks the store for its cluster prior under
  /// `prior_policy` at construction, and after the run every canonical
  /// controller publishes back (outcome feedback always; a distilled
  /// snapshot when it reached exploitation), in cluster-index order so the
  /// store's content is shard/thread-layout invariant.  Non-owning; must
  /// outlive the engine.  nullptr = no knowledge plane (and kCold keeps an
  /// attached store read-only + bit-identical to a cold run, by contract).
  priors::KnowledgeStore* knowledge = nullptr;
  priors::PriorPolicy prior_policy = priors::PriorPolicy::kCold;
};

}  // namespace bofl::fleet
