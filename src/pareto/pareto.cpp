#include "pareto/pareto.hpp"

#include <algorithm>
#include <limits>

namespace bofl::pareto {

bool dominates(const Point2& a, const Point2& b) {
  return a.f1 <= b.f1 && a.f2 <= b.f2 && (a.f1 < b.f1 || a.f2 < b.f2);
}

std::vector<std::size_t> non_dominated_indices(
    const std::vector<Point2>& points) {
  std::vector<std::size_t> result;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool is_dominated = false;
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j != i && dominates(points[j], points[i])) {
        is_dominated = true;
        break;
      }
    }
    if (!is_dominated) {
      result.push_back(i);
    }
  }
  return result;
}

std::vector<Point2> pareto_front(std::vector<Point2> points) {
  if (points.empty()) {
    return {};
  }
  // Sort by f1 ascending, ties by f2 ascending; sweep keeping the running
  // minimum of f2.  O(n log n).
  std::sort(points.begin(), points.end(), [](const Point2& a, const Point2& b) {
    return a.f1 != b.f1 ? a.f1 < b.f1 : a.f2 < b.f2;
  });
  std::vector<Point2> front;
  double best_f2 = std::numeric_limits<double>::infinity();
  for (const Point2& p : points) {
    if (p.f2 < best_f2) {
      // Skip exact duplicates of the previous front point.
      if (!front.empty() && front.back() == p) {
        continue;
      }
      front.push_back(p);
      best_f2 = p.f2;
    }
  }
  return front;
}

}  // namespace bofl::pareto
