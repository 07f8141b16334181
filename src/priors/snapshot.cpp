#include "priors/snapshot.hpp"

#include <algorithm>

namespace bofl::priors {

core::BoflController::PriorSeed PriorSnapshot::make_seed() const {
  // Verification-pass length.  Two Pareto ids (plus the mandatory x_max
  // re-measurement) fit a single round under the phase-1 guardian budget on
  // the reference devices, so the verification pass collapses to one round.
  constexpr std::size_t kMaxVerifyIds = 2;
  core::BoflController::PriorSeed seed;
  seed.observations = observations;
  const std::size_t count = std::min(kMaxVerifyIds, pareto_flat_ids.size());
  seed.verify_flat_ids.assign(pareto_flat_ids.begin(),
                              pareto_flat_ids.begin() +
                                  static_cast<std::ptrdiff_t>(count));
  seed.warm_fit1 = fit1;
  seed.warm_fit2 = fit2;
  return seed;
}

PriorSnapshot distill(const core::BoflController& controller,
                      std::int64_t source_rounds) {
  PriorSnapshot snapshot;
  snapshot.observations = controller.export_state();
  std::vector<std::size_t> exported;  // export_state is sorted by flat id
  exported.reserve(snapshot.observations.size());
  for (const auto& obs : snapshot.observations) {
    exported.push_back(obs.config_flat);
  }
  for (const std::size_t flat : controller.pareto_flat_ids()) {
    if (std::binary_search(exported.begin(), exported.end(), flat)) {
      snapshot.pareto_flat_ids.push_back(flat);
    }
  }
  if (controller.t_x_max()) {
    snapshot.t_x_max_s = controller.t_x_max()->value();
  }
  snapshot.source_rounds = source_rounds;
  snapshot.fit1 = controller.engine().warm_fit1();
  snapshot.fit2 = controller.engine().warm_fit2();
  return snapshot;
}

}  // namespace bofl::priors
