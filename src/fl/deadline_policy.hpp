// Server-side deadline assignment (paper §2.1).
//
// BoFL is deliberately agnostic to how the server picks deadlines: "any
// deadline assignment algorithm, either strategically designing round
// deadlines or using a static timeout value, can function well with BoFL".
// This module provides two of the families the paper cites:
//
//   * UniformSlackPolicy   — the paper's own evaluation protocol (§6.1):
//     deadlines uniform in [T_min, ratio * T_min] of the selected cohort.
//   * AdaptiveSlackPolicy  — SmartPC/AutoFL-flavoured: starts with a
//     generous slack and tightens it geometrically while clients keep
//     making their deadlines, backing off on any miss.
//
// All policies work from `cohort_t_min`, the server's estimate of the
// fastest possible round time of the round's slowest selected participant.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace bofl::fl {

/// Fastest feasible round time of a selected cohort: the slowest selected
/// participant's T_min.  This is *the* feasibility floor every
/// DeadlinePolicy::assign() consumes.  Requires a non-empty cohort with
/// positive per-client T_min.
[[nodiscard]] Seconds cohort_deadline_floor(
    const std::vector<Seconds>& client_t_min,
    const std::vector<std::size_t>& participants);

class DeadlinePolicy {
 public:
  virtual ~DeadlinePolicy() = default;

  /// Deadline for `round`, given the cohort's estimated minimum round time.
  [[nodiscard]] virtual Seconds assign(std::int64_t round,
                                       Seconds cohort_t_min) = 0;

  /// Feed back whether every selected client met the assigned deadline
  /// (adaptive policies learn from this; others ignore it).
  virtual void record_outcome(bool all_met) { (void)all_met; }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Uniform in [T_min, ratio * T_min] — the paper's §6.1 protocol.
class UniformSlackPolicy final : public DeadlinePolicy {
 public:
  UniformSlackPolicy(double max_over_min_ratio, std::uint64_t seed);

  [[nodiscard]] Seconds assign(std::int64_t round,
                               Seconds cohort_t_min) override;
  [[nodiscard]] const char* name() const override { return "uniform-slack"; }

 private:
  double ratio_;
  Rng rng_;
};

/// Multiplicative-decrease slack: deadline = slack * cohort_t_min, with
/// slack tightened by `tighten` after each fully-successful round and
/// relaxed by `backoff` after any miss, clamped to [min_slack, max_slack].
class AdaptiveSlackPolicy final : public DeadlinePolicy {
 public:
  struct Config {
    double initial_slack = 3.0;
    double min_slack = 1.2;
    double max_slack = 4.0;
    double tighten = 0.97;  ///< multiplier after an all-met round
    double backoff = 1.3;   ///< multiplier after a missed round
  };

  AdaptiveSlackPolicy();  // default Config
  explicit AdaptiveSlackPolicy(Config config);

  [[nodiscard]] Seconds assign(std::int64_t round,
                               Seconds cohort_t_min) override;
  void record_outcome(bool all_met) override;
  [[nodiscard]] const char* name() const override { return "adaptive-slack"; }

  [[nodiscard]] double current_slack() const { return slack_; }

 private:
  Config config_;
  double slack_;
};

}  // namespace bofl::fl
