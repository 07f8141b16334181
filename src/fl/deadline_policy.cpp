#include "fl/deadline_policy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bofl::fl {

namespace {

// AdaptiveSlackPolicy's schedule.
constexpr double kInitialSlack = 3.0;
constexpr double kMinSlack = 1.2;
constexpr double kMaxSlack = 4.0;
constexpr double kTighten = 0.97;  ///< multiplier after an all-met round
constexpr double kBackoff = 1.3;   ///< multiplier after a missed round
static_assert(kMinSlack >= 1.0, "min slack must be >= 1");
static_assert(kMinSlack <= kInitialSlack && kInitialSlack <= kMaxSlack,
              "need min slack <= initial slack <= max slack");
static_assert(kTighten > 0.0 && kTighten < 1.0, "tighten must be in (0, 1)");
static_assert(kBackoff > 1.0, "backoff must be > 1");

}  // namespace

Seconds cohort_deadline_floor(const std::vector<Seconds>& client_t_min,
                              const std::vector<std::size_t>& participants) {
  BOFL_REQUIRE(!participants.empty(), "cohort must have participants");
  Seconds slowest{0.0};
  for (const std::size_t id : participants) {
    BOFL_REQUIRE(id < client_t_min.size(), "participant id out of range");
    BOFL_REQUIRE(client_t_min[id].value() > 0.0,
                 "client T_min must be positive");
    slowest = std::max(slowest, client_t_min[id]);
  }
  return slowest;
}

UniformSlackPolicy::UniformSlackPolicy(double max_over_min_ratio,
                                       std::uint64_t seed)
    : ratio_(max_over_min_ratio), rng_(seed) {
  BOFL_REQUIRE(max_over_min_ratio >= 1.0, "slack ratio must be >= 1");
}

Seconds UniformSlackPolicy::assign(std::int64_t round, Seconds cohort_t_min) {
  (void)round;
  BOFL_REQUIRE(cohort_t_min.value() > 0.0, "cohort T_min must be positive");
  return Seconds{
      rng_.uniform(cohort_t_min.value(), cohort_t_min.value() * ratio_)};
}

AdaptiveSlackPolicy::AdaptiveSlackPolicy() : slack_(kInitialSlack) {}

Seconds AdaptiveSlackPolicy::assign(std::int64_t round, Seconds cohort_t_min) {
  (void)round;
  BOFL_REQUIRE(cohort_t_min.value() > 0.0, "cohort T_min must be positive");
  return Seconds{slack_ * cohort_t_min.value()};
}

void AdaptiveSlackPolicy::record_outcome(bool all_met) {
  slack_ = all_met ? slack_ * kTighten : slack_ * kBackoff;
  slack_ = std::clamp(slack_, kMinSlack, kMaxSlack);
}

}  // namespace bofl::fl
