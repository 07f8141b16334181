// The knowledge-plane handshake, shared by fl::Simulation and the fleet's
// canonical controllers: how a BoflController is seeded from the
// KnowledgeStore (admission) and how it reports back (publish).  Publishing
// is split so callers can parallelize the expensive, store-free half
// (distilling walks the GP posterior); applying must run serially in
// client-id / cluster-index order to keep store bytes layout-invariant.
#pragma once

#include <cstdint>

#include "core/bofl_controller.hpp"
#include "priors/cluster_key.hpp"
#include "priors/prior_policy.hpp"
#include "priors/snapshot.hpp"

namespace bofl::priors {

class KnowledgeStore;

/// Ask `store` for `key`'s prior under `requested` and, when it grants one,
/// seed the fresh `controller` with it.  Returns the policy actually applied:
/// admission may downgrade (kTrust -> kVerify below the trust bar) or
/// decline (unknown or empty cluster, low confidence), the controller
/// declines a kVerify prior too thin to fit its surrogates from, and a
/// declined controller stays bit-identical to a cold start (kCold).
PriorPolicy admit_prior(const KnowledgeStore& store, const ClusterKey& key,
                        PriorPolicy requested,
                        core::BoflController& controller);

/// Everything one controller tells the store at the end of a run: outcome
/// feedback for the confidence score once its prior resolved, plus a
/// distilled snapshot when it reached exploitation.
struct PublishBatch {
  ClusterKey key{};
  bool has_outcome = false;
  bool confirmed = false;
  bool has_snapshot = false;
  PriorSnapshot snapshot{};
};

/// Const and store-free: safe to call concurrently across controllers.
/// `source_rounds` is how many rounds the controller ran.
[[nodiscard]] PublishBatch prepare_publish(
    const core::BoflController& controller, ClusterKey key,
    std::int64_t source_rounds);

/// Apply a prepared batch to `store`.  Serial only, in canonical order.
void apply_publish(KnowledgeStore& store, const PublishBatch& batch);

}  // namespace bofl::priors
