// Satellite scenario: a healthy-cluster prior applied to a thermally
// degraded unit ("prior-poisoned").  The Eqn. 2 guardian must stay
// authoritative — the poisoned prior trips a misprediction, re-arms drift,
// demotes to the cold protocol, and no pessimistically-feasible round is
// ever missed along the way.
//
// Deliberately no check_monotone_hypervolume() here: demotion rebuilds the
// engine from the unit's OWN observations only, so the observed front may
// legitimately shrink at the demotion boundary.
#include <gtest/gtest.h>

#include "core/bofl_controller.hpp"
#include "faults/fault_plan.hpp"
#include "scenarios/scenario_runner.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::scenarios {
namespace {

using core::BoflController;

/// A donor snapshot distilled from a clean (healthy-unit) run — the
/// knowledge a fleet store would hold for this cluster.
BoflController::PriorSeed make_donor_seed(priors::PriorSnapshot* snapshot) {
  DeviceScenarioOptions clean;
  clean.ratio = 3.0;
  clean.rounds = 40;
  clean.seed = 11;
  const DeviceScenarioResult donor =
      run_device_scenario(faults::FaultPlan{}, clean);
  EXPECT_FALSE(donor.snapshot.empty());
  *snapshot = donor.snapshot;
  return snapshot->make_seed();
}

TEST(PriorScenario, PoisonedPriorTripsGuardianAndDemotes) {
  priors::PriorSnapshot snapshot;
  const BoflController::PriorSeed seed = make_donor_seed(&snapshot);

  telemetry::Registry registry;
  telemetry::set_global_registry(&registry);
  DeviceScenarioOptions opts;
  opts.rounds = 30;
  opts.seed = 3;
  opts.prior = &seed;
  opts.prior_policy = priors::PriorPolicy::kVerify;
  const DeviceScenarioResult result =
      run_named_device_scenario("prior-poisoned", opts);
  telemetry::set_global_registry(nullptr);

  // The unit runs 1.5x slower than the prior believes — past the 1.25x
  // drift band, so the first on-unit measurement is a misprediction.
  EXPECT_EQ(result.prior_state, BoflController::PriorState::kDemoted);
  EXPECT_GE(registry.counter("bofl.prior_mispredictions").total(), 1u);
  EXPECT_GE(registry.counter("bofl.prior_demotions").total(), 1u);
  // The guardian never trusted the prior enough to miss: every round that
  // was pessimistically feasible at its start met its deadline.
  EXPECT_EQ(result.check_no_feasible_miss(), "");
}

TEST(PriorScenario, SamePriorVerifiesOnAHealthyUnit) {
  // Control: the identical seed on a clean unit sails through verification
  // — proving the demotion above is the fault's doing, not the prior's.
  priors::PriorSnapshot snapshot;
  const BoflController::PriorSeed seed = make_donor_seed(&snapshot);

  DeviceScenarioOptions opts;
  opts.rounds = 30;
  opts.seed = 3;
  opts.prior = &seed;
  opts.prior_policy = priors::PriorPolicy::kVerify;
  const DeviceScenarioResult result =
      run_device_scenario(faults::FaultPlan{}, opts);
  EXPECT_EQ(result.prior_state, BoflController::PriorState::kVerified);
  EXPECT_EQ(result.check_no_feasible_miss(), "");
  // A verified warm start contributes its refined knowledge onward.
  EXPECT_FALSE(result.snapshot.empty());
}

}  // namespace
}  // namespace bofl::scenarios
