// Controller-level warm-start semantics: the kCold differential guarantee,
// the kVerify phase-1/2 collapse, misprediction demotion, and kTrust
// adoption — the contract the fleet knowledge plane builds on.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "core/mbo_cost.hpp"
#include "core/task.hpp"
#include "device/device_model.hpp"
#include "priors/snapshot.hpp"

namespace bofl::priors {
namespace {

using core::BoflController;

core::BoflOptions fast_options(const std::string& device_name) {
  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(device_name);
  options.mbo.hyperopt.num_restarts = 2;
  options.mbo.hyperopt.max_iterations_per_start = 80;
  return options;
}

std::vector<core::RoundSpec> rounds_for(const device::DeviceModel& model,
                                        std::int64_t rounds, double ratio,
                                        std::uint64_t seed) {
  core::FlTaskSpec task = core::cifar10_vit_task(model.name());
  task.num_rounds = rounds;
  return core::make_rounds(task, model, ratio, seed);
}

/// A donor controller run to convergence, plus its distilled snapshot.
struct Donor {
  std::unique_ptr<BoflController> controller;
  PriorSnapshot snapshot;
};

Donor make_donor(const device::DeviceModel& model) {
  const core::FlTaskSpec task = core::cifar10_vit_task(model.name());
  Donor donor;
  donor.controller = std::make_unique<BoflController>(
      model, task.profile, device::NoiseModel{}, fast_options(model.name()),
      11);
  const auto rounds = rounds_for(model, 40, 3.0, 21);
  (void)core::run_task(*donor.controller, rounds);
  EXPECT_EQ(donor.controller->phase(), core::Phase::kExploitation);
  donor.snapshot = distill(*donor.controller, 40);
  EXPECT_FALSE(donor.snapshot.empty());
  return donor;
}

TEST(WarmStart, KColdReproducesTheColdTrajectoryExactly) {
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  const Donor donor = make_donor(agx);
  const BoflController::PriorSeed seed = donor.snapshot.make_seed(2);

  BoflController cold(agx, task.profile, {}, fast_options(agx.name()), 77);
  BoflController offered(agx, task.profile, {}, fast_options(agx.name()), 77);
  offered.apply_prior(seed, PriorPolicy::kCold);  // must be a strict no-op
  EXPECT_EQ(offered.prior_state(), BoflController::PriorState::kNone);

  const auto rounds = rounds_for(agx, 16, 2.0, 33);
  const core::TaskResult a = core::run_task(cold, rounds);
  const core::TaskResult b = core::run_task(offered, rounds);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].energy().value(), b.rounds[i].energy().value());
    EXPECT_EQ(a.rounds[i].elapsed().value(), b.rounds[i].elapsed().value());
    EXPECT_EQ(a.rounds[i].phase, b.rounds[i].phase);
  }
}

TEST(WarmStart, KVerifyCollapsesExplorationToAVerificationPass) {
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  const Donor donor = make_donor(agx);

  BoflController warm(agx, task.profile, {}, fast_options(agx.name()), 77);
  warm.apply_prior(donor.snapshot.make_seed(2), PriorPolicy::kVerify);
  EXPECT_EQ(warm.prior_state(), BoflController::PriorState::kVerifying);

  const auto rounds = rounds_for(agx, 16, 3.0, 33);
  const core::TaskResult result = core::run_task(warm, rounds);
  EXPECT_EQ(warm.prior_state(), BoflController::PriorState::kVerified);
  // The donor's coverage satisfies the stopping rule's exploration floor,
  // so the verification pass goes straight to exploitation: at most a
  // couple of rounds spent outside phase 3 versus the cold ~6-10.
  const std::int64_t exploration =
      result.rounds_in_phase(core::Phase::kSafeRandomExploration) +
      result.rounds_in_phase(core::Phase::kParetoConstruction);
  EXPECT_LE(exploration, 2);
  EXPECT_EQ(warm.phase(), core::Phase::kExploitation);
}

TEST(WarmStart, OptimisticPriorDemotesToColdAndRearmsDrift) {
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  const Donor donor = make_donor(agx);

  // Poison the believed profiles: claim every config is 2x faster than it
  // really is.  The first on-unit measurement lands outside the drift band
  // (actual > believed * 1.25, the drift demotion ratio) — an optimistic
  // misprediction.
  PriorSnapshot poisoned = donor.snapshot;
  for (auto& obs : poisoned.observations) {
    obs.mean_latency *= 0.5;
  }

  BoflController warm(agx, task.profile, {}, fast_options(agx.name()), 77);
  warm.apply_prior(poisoned.make_seed(2), PriorPolicy::kVerify);

  const auto rounds = rounds_for(agx, 20, 3.0, 33);
  const core::TaskResult result = core::run_task(warm, rounds);
  EXPECT_EQ(warm.prior_state(), BoflController::PriorState::kDemoted);
  // Demotion falls back to the cold three-phase protocol and still ends in
  // exploitation; no deadline may be missed along the way (the guardian
  // stayed authoritative throughout).
  EXPECT_EQ(warm.phase(), core::Phase::kExploitation);
  for (const core::RoundTrace& trace : result.rounds) {
    EXPECT_TRUE(trace.deadline_met())
        << "round " << trace.index << " missed under a poisoned prior";
  }
}

TEST(WarmStart, KTrustAdoptsWithoutVerification) {
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  const Donor donor = make_donor(agx);

  BoflController trusted(agx, task.profile, {}, fast_options(agx.name()), 77);
  trusted.apply_prior(donor.snapshot.make_seed(2), PriorPolicy::kTrust);
  EXPECT_EQ(trusted.prior_state(), BoflController::PriorState::kAdopted);
  // import_state semantics: the donor's coverage passes the exploration
  // floor, so the controller starts its life in exploitation.
  EXPECT_EQ(trusted.phase(), core::Phase::kExploitation);

  const auto rounds = rounds_for(agx, 8, 3.0, 33);
  const core::TaskResult result = core::run_task(trusted, rounds);
  EXPECT_EQ(result.rounds_in_phase(core::Phase::kExploitation),
            static_cast<std::int64_t>(result.rounds.size()));
}

}  // namespace
}  // namespace bofl::priors
