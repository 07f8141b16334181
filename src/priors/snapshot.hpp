// One cluster's distilled knowledge: the believed per-configuration
// profiles, the pruned Pareto representatives, the guardian anchor, and the
// GP hyperparameter optima of a converged controller.  Snapshots are what
// the KnowledgeStore merges and what a warm-started client consumes (via
// make_seed).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bo/mbo_engine.hpp"
#include "core/bofl_controller.hpp"
#include "gp/hyperopt.hpp"

namespace bofl::priors {

struct PriorSnapshot {
  /// Per-config aggregates, sorted by flat id (export_state order).
  std::vector<core::BoflController::SavedObservation> observations;
  /// Flat ids of the cluster's Pareto-optimal configs, sorted ascending.
  std::vector<std::size_t> pareto_flat_ids;
  /// Believed per-job latency at x_max, seconds (0 = unknown).  Only ever
  /// used for reporting — a warm-started client re-measures x_max before
  /// the guardian trusts anything.
  double t_x_max_s = 0.0;
  /// Rounds the most recent contributor had run when it was distilled.
  std::int64_t source_rounds = 0;
  /// Last hyperparameter-fit optima per objective (energy, latency).
  std::optional<gp::HyperoptResult> fit1;
  std::optional<gp::HyperoptResult> fit2;

  [[nodiscard]] bool empty() const { return observations.empty(); }
  /// Enough observations to fit the GP surrogates from
  /// (bo::kMinProposeObservations).  A controller seeded from fewer would
  /// skip phase 1 when x_max is among them and reach Pareto construction
  /// unable to propose, so such a snapshot starts a controller cold.
  [[nodiscard]] bool fits_surrogates() const {
    return observations.size() >= bo::kMinProposeObservations;
  }

  /// Controller seed: all observations, plus up to `max_verify` Pareto
  /// representatives as the on-unit verification plan (x_max is prepended
  /// by the controller itself).
  [[nodiscard]] core::BoflController::PriorSeed make_seed(
      std::size_t max_verify = 4) const;
};

/// Distill a snapshot from a controller (typically converged — callers gate
/// on phase() == kExploitation).  Only locally-measured aggregates are
/// exported; Pareto ids are intersected with them so a borrowed overlay
/// never round-trips through the store.
[[nodiscard]] PriorSnapshot distill(const core::BoflController& controller,
                                    std::int64_t source_rounds);

}  // namespace bofl::priors
