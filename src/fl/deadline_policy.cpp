#include "fl/deadline_policy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace bofl::fl {

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

AdaptiveSlackPolicy::AdaptiveSlackPolicy() : AdaptiveSlackPolicy(Config{}) {}

AdaptiveSlackPolicy::AdaptiveSlackPolicy(Config config)
    : config_(config), slack_(config.initial_slack) {
  BOFL_REQUIRE(config.min_slack >= 1.0, "min slack must be >= 1");
  BOFL_REQUIRE(config.min_slack <= config.initial_slack &&
                   config.initial_slack <= config.max_slack,
               "need min_slack <= initial_slack <= max_slack");
  BOFL_REQUIRE(config.tighten > 0.0 && config.tighten < 1.0,
               "tighten must be in (0, 1)");
  BOFL_REQUIRE(config.backoff > 1.0, "backoff must be > 1");
}

Seconds AdaptiveSlackPolicy::assign(std::int64_t round, Seconds cohort_t_min) {
  (void)round;
  BOFL_REQUIRE(cohort_t_min.value() > 0.0, "cohort T_min must be positive");
  return Seconds{slack_ * cohort_t_min.value()};
}

void AdaptiveSlackPolicy::record_outcome(bool all_met) {
  slack_ = all_met ? slack_ * config_.tighten : slack_ * config_.backoff;
  slack_ = std::clamp(slack_, config_.min_slack, config_.max_slack);
}

}  // namespace bofl::fl
