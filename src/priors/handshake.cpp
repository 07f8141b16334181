#include "priors/handshake.hpp"

#include <utility>

#include "priors/knowledge_store.hpp"

namespace bofl::priors {

PriorPolicy admit_prior(const KnowledgeStore& store, const ClusterKey& key,
                        PriorPolicy requested,
                        core::BoflController& controller) {
  const KnowledgeStore::Admission admission = store.admit(key, requested);
  if (admission.snapshot == nullptr) {
    return PriorPolicy::kCold;
  }
  controller.apply_prior(admission.snapshot->make_seed(), admission.policy);
  return controller.prior_state() ==
                 core::BoflController::PriorState::kNone
             ? PriorPolicy::kCold
             : admission.policy;
}

PublishBatch prepare_publish(const core::BoflController& controller,
                             ClusterKey key, std::int64_t source_rounds) {
  using PriorState = core::BoflController::PriorState;
  PublishBatch batch;
  batch.key = std::move(key);
  switch (controller.prior_state()) {
    case PriorState::kVerified:
    case PriorState::kAdopted:
      batch.has_outcome = true;
      batch.confirmed = true;
      break;
    case PriorState::kDemoted:
      batch.has_outcome = true;
      batch.confirmed = false;
      break;
    case PriorState::kNone:
    case PriorState::kVerifying:
      break;
  }
  if (controller.phase() == core::Phase::kExploitation) {
    batch.has_snapshot = true;
    batch.snapshot = distill(controller, source_rounds);
  }
  return batch;
}

void apply_publish(KnowledgeStore& store, const PublishBatch& batch) {
  if (batch.has_outcome) {
    store.record_outcome(batch.key, batch.confirmed);
  }
  if (batch.has_snapshot) {
    store.contribute(batch.key, batch.snapshot);
  }
}

}  // namespace bofl::priors
