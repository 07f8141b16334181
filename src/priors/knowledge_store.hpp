// The fleet knowledge plane's server-side store: one merged PriorSnapshot
// per (device model × workload profile) cluster plus an outcome-driven
// confidence score that gates admission.  Its JSON is also the one on-disk
// format for a single controller's learned state: bofl_sim --save-state
// writes a one-cluster store and --load-state imports that cluster's
// observations.
//
// Determinism rules (DESIGN.md §6g):
//   - contribute() merges with quotient-exact weighted means (the same
//     nextafter arithmetic BoflController::import_state uses), so
//     merge(a, merge(b, c)) is a pure function of the contribution
//     sequence;
//   - callers contribute in (cluster-id, client-id) canonical order — the
//     fleet engine iterates clusters in creation order, fl::Simulation in
//     client-id order — so a store built at any --shards × --threads layout
//     is byte-identical;
//   - to_json() emits clusters sorted by key with shortest-round-trip
//     doubles: save → load → save is byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "priors/cluster_key.hpp"
#include "priors/prior_policy.hpp"
#include "priors/snapshot.hpp"

namespace bofl::priors {

struct ClusterKnowledge {
  PriorSnapshot snapshot;
  std::uint64_t contributions = 0;
  std::uint64_t verified = 0;
  std::uint64_t mispredictions = 0;
};

class KnowledgeStore {
 public:
  /// Admission decision for a client requesting `requested`: the policy the
  /// store actually grants and the cluster snapshot, or {kCold, nullptr}
  /// when the cluster is unknown or empty, or its confidence is below 0.5.
  /// kTrust is downgraded to kVerify below a confidence of 0.9.  kCold
  /// requests pass through untouched.  Whether the snapshot holds enough
  /// observations to resume from is the controller's decision
  /// (BoflController::apply_prior).
  struct Admission {
    PriorPolicy policy = PriorPolicy::kCold;
    const PriorSnapshot* snapshot = nullptr;
  };
  [[nodiscard]] Admission admit(const ClusterKey& key,
                                PriorPolicy requested) const;

  /// Merge a freshly distilled snapshot into the cluster (an empty one only
  /// registers the cluster, so a store saved before any round still holds
  /// it): observation lists
  /// combine with job-weighted quotient-exact means, the Pareto front is
  /// recomputed over the merged profiles, and scalar fields (t_x_max,
  /// source_rounds, GP fits) take the newest contribution.
  void contribute(const ClusterKey& key, const PriorSnapshot& snapshot);

  /// Outcome feedback from a warm-started client: true when the
  /// verification pass confirmed the prior, false when it was demoted.
  void record_outcome(const ClusterKey& key, bool confirmed);

  /// verified / (verified + 4 · mispredictions): one misprediction
  /// outweighs four verifications.  1 when the cluster has no outcomes
  /// yet, 0 when unknown.
  [[nodiscard]] double confidence(const ClusterKey& key) const;

  [[nodiscard]] std::size_t num_clusters() const { return clusters_.size(); }
  [[nodiscard]] const std::map<ClusterKey, ClusterKnowledge>& clusters()
      const {
    return clusters_;
  }

  /// Byte-stable serialization (see the determinism rules above).
  [[nodiscard]] std::string to_json() const;
  /// Checks every field before it is cast or used, and throws
  /// std::invalid_argument on the first bad one: counts and ids must be
  /// integers in [0, 2^53), observation ids strictly ascending, jobs and
  /// means positive, t_x_max_s non-negative, 'gp' must hold no fit or one
  /// per objective, and no cluster may appear twice.  Every store save()
  /// writes passes.
  [[nodiscard]] static KnowledgeStore from_json(const std::string& text);
  void save(const std::string& path) const;
  [[nodiscard]] static KnowledgeStore from_file(const std::string& path);

 private:
  std::map<ClusterKey, ClusterKnowledge> clusters_;
};

}  // namespace bofl::priors
