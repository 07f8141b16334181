// Pareto dominance and Pareto-set extraction for minimization problems.
//
// BoFL's performance space is 2-D — per-job energy E(x) and latency T(x),
// both minimized (§3.2).  Point2 carries that pair.
#pragma once

#include <cstddef>
#include <vector>

namespace bofl::pareto {

/// A point in the 2-D objective space (both coordinates minimized).
/// For BoFL: f1 = energy per job [J], f2 = latency per job [s].
struct Point2 {
  double f1 = 0.0;
  double f2 = 0.0;

  friend bool operator==(const Point2&, const Point2&) = default;
};

/// Weak Pareto dominance for minimization: a dominates b iff a is no worse
/// in both coordinates and strictly better in at least one.
[[nodiscard]] bool dominates(const Point2& a, const Point2& b);

/// Indices of the non-dominated points in `points`.  Duplicates of a
/// non-dominated point are all retained (none strictly dominates another).
/// Order of returned indices is ascending.
[[nodiscard]] std::vector<std::size_t> non_dominated_indices(
    const std::vector<Point2>& points);

/// The non-dominated subset itself, sorted by ascending f1 (and descending
/// f2, as any valid 2-D front is).  Duplicate objective vectors are
/// collapsed to one representative.
[[nodiscard]] std::vector<Point2> pareto_front(std::vector<Point2> points);

}  // namespace bofl::pareto
