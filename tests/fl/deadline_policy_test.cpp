#include "fl/deadline_policy.hpp"

#include <gtest/gtest.h>

namespace bofl::fl {
namespace {

TEST(UniformSlack, StaysWithinBand) {
  UniformSlackPolicy policy(3.0, 7);
  for (int round = 0; round < 500; ++round) {
    const double d = policy.assign(round, Seconds{20.0}).value();
    EXPECT_GE(d, 20.0);
    EXPECT_LE(d, 60.0);
  }
}

TEST(UniformSlack, DeterministicBySeed) {
  UniformSlackPolicy a(2.0, 11);
  UniformSlackPolicy b(2.0, 11);
  for (int round = 0; round < 20; ++round) {
    EXPECT_DOUBLE_EQ(a.assign(round, Seconds{10.0}).value(),
                     b.assign(round, Seconds{10.0}).value());
  }
}

TEST(UniformSlack, RejectsBadArguments) {
  EXPECT_THROW(UniformSlackPolicy(0.5, 1), std::invalid_argument);
  UniformSlackPolicy policy(2.0, 1);
  EXPECT_THROW((void)policy.assign(0, Seconds{0.0}), std::invalid_argument);
}

TEST(UniformSlack, RatioOfExactlyOnePinsDeadlineToTmin) {
  // Boundary of the §6.1 band: ratio 1.0 leaves zero slack — every
  // deadline must equal T_min exactly, never a hair below it.
  UniformSlackPolicy policy(1.0, 3);
  for (int round = 0; round < 100; ++round) {
    EXPECT_DOUBLE_EQ(policy.assign(round, Seconds{17.25}).value(), 17.25);
  }
}

TEST(CohortFloor, TracksSlowestParticipantPlusOverhead) {
  const std::vector<Seconds> t_min{Seconds{5.0}, Seconds{9.0}, Seconds{7.0}};
  EXPECT_DOUBLE_EQ(cohort_deadline_floor(t_min, {0, 2}).value(), 7.0);
  EXPECT_DOUBLE_EQ(cohort_deadline_floor(t_min, {1}).value(), 9.0);
  EXPECT_DOUBLE_EQ(cohort_deadline_floor(t_min, {0, 1, 2}).value(), 9.0);
}

TEST(CohortFloor, RejectsDegenerateCohorts) {
  const std::vector<Seconds> t_min{Seconds{5.0}};
  EXPECT_THROW((void)cohort_deadline_floor(t_min, {}), std::invalid_argument);
  EXPECT_THROW((void)cohort_deadline_floor({}, {0}), std::invalid_argument);
}

TEST(AdaptiveSlack, TightensOnSuccess) {
  AdaptiveSlackPolicy policy;
  const double first = policy.assign(0, Seconds{10.0}).value();
  for (int i = 0; i < 20; ++i) {
    policy.record_outcome(true);
  }
  const double later = policy.assign(20, Seconds{10.0}).value();
  EXPECT_LT(later, first);
  EXPECT_GE(policy.current_slack(), 1.2);  // clamped at min_slack
}

TEST(AdaptiveSlack, BacksOffOnMiss) {
  AdaptiveSlackPolicy policy;
  const double before = policy.current_slack();
  policy.record_outcome(false);
  EXPECT_GT(policy.current_slack(), before);
}

TEST(AdaptiveSlack, ClampsAtBounds) {
  AdaptiveSlackPolicy policy;
  for (int i = 0; i < 100; ++i) {
    policy.record_outcome(true);
  }
  EXPECT_DOUBLE_EQ(policy.current_slack(), 1.2);
  for (int i = 0; i < 100; ++i) {
    policy.record_outcome(false);
  }
  EXPECT_DOUBLE_EQ(policy.current_slack(), 4.0);
}

TEST(AdaptiveSlack, ConvergesNearEquilibriumUnderMixedOutcomes) {
  // With tighten 0.97 and backoff 1.3, one miss cancels ~9 successes: the
  // policy should hover well above min_slack when ~20 % of rounds miss.
  AdaptiveSlackPolicy policy;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    policy.record_outcome(!rng.bernoulli(0.2));
  }
  EXPECT_GT(policy.current_slack(), 1.5);
}

TEST(Policies, WorkThroughTheInterface) {
  std::vector<std::unique_ptr<DeadlinePolicy>> policies;
  policies.push_back(std::make_unique<UniformSlackPolicy>(2.0, 1));
  policies.push_back(std::make_unique<AdaptiveSlackPolicy>());
  for (const auto& policy : policies) {
    const Seconds d = policy->assign(0, Seconds{10.0});
    EXPECT_GT(d.value(), 0.0);
    policy->record_outcome(true);  // must be harmless everywhere
  }
}

}  // namespace
}  // namespace bofl::fl
