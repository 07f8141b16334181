// Random LPs of the per-round schedule problem's shape, shared by the
// simplex and branch-and-bound differential oracles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "ilp/lp.hpp"

namespace bofl::ilp {

/// The LP shape of the per-round schedule problem: k profiles' energies
/// under a job-count equality and a deadline, plus the variable bounds a
/// branch-and-bound node adds along its path.
inline LpProblem scheduler_lp(Rng& rng) {
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 12));
  const auto jobs = static_cast<double>(rng.uniform_int(1, 200));
  LpProblem p;
  std::vector<double> latency(k);
  double fastest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < k; ++i) {
    p.objective.push_back(rng.uniform(0.5, 6.0));
    latency[i] = rng.uniform(0.05, 1.0);
    fastest = std::min(fastest, latency[i]);
  }
  p.constraints.push_back({std::vector<double>(k, 1.0), Relation::kEqual,
                           jobs});
  // Deadlines from a little below the fastest schedule (infeasible) to
  // loose enough for the cheapest profile alone.
  p.constraints.push_back(
      {latency, Relation::kLessEqual, jobs * fastest * rng.uniform(0.95, 3.0)});
  const std::int64_t bounds = rng.uniform_int(0, 4);
  for (std::int64_t b = 0; b < bounds; ++b) {
    LpConstraint bound;
    bound.coefficients.assign(k, 0.0);
    bound.coefficients[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))] = 1.0;
    bound.relation =
        rng.uniform() < 0.5 ? Relation::kLessEqual : Relation::kGreaterEqual;
    bound.rhs = std::floor(rng.uniform(0.0, jobs));
    p.constraints.push_back(std::move(bound));
  }
  return p;
}

}  // namespace bofl::ilp
