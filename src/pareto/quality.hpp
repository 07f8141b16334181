// Front-quality indicators beyond the hypervolume: the standard metrics the
// multi-objective optimization literature uses to score an approximated
// front against a reference front.  All assume minimization.
#pragma once

#include "pareto/pareto.hpp"

namespace bofl::pareto {

/// Additive epsilon indicator: the smallest eps such that every reference
/// point is weakly dominated by some approximation point shifted by eps,
///   eps = max_{r in reference} min_{a in approx} max_d (a_d - r_d).
/// 0 means the approximation covers the reference exactly; larger is worse.
[[nodiscard]] double additive_epsilon(const std::vector<Point2>& approximation,
                                      const std::vector<Point2>& reference);

/// Inverted generational distance: mean distance from each reference point
/// to its nearest approximation point (how *complete* the coverage is).
[[nodiscard]] double inverted_generational_distance(
    const std::vector<Point2>& approximation,
    const std::vector<Point2>& reference);

}  // namespace bofl::pareto
