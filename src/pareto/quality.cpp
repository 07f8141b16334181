#include "pareto/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl::pareto {

namespace {

double euclidean(const Point2& a, const Point2& b) {
  const double d1 = a.f1 - b.f1;
  const double d2 = a.f2 - b.f2;
  return std::sqrt(d1 * d1 + d2 * d2);
}

double mean_nearest_distance(const std::vector<Point2>& from,
                             const std::vector<Point2>& to) {
  BOFL_REQUIRE(!from.empty() && !to.empty(),
               "quality indicators need non-empty fronts");
  double total = 0.0;
  for (const Point2& p : from) {
    double nearest = std::numeric_limits<double>::infinity();
    for (const Point2& q : to) {
      nearest = std::min(nearest, euclidean(p, q));
    }
    total += nearest;
  }
  return total / static_cast<double>(from.size());
}

}  // namespace

double additive_epsilon(const std::vector<Point2>& approximation,
                        const std::vector<Point2>& reference) {
  BOFL_REQUIRE(!approximation.empty() && !reference.empty(),
               "quality indicators need non-empty fronts");
  double eps = -std::numeric_limits<double>::infinity();
  for (const Point2& r : reference) {
    double best = std::numeric_limits<double>::infinity();
    for (const Point2& a : approximation) {
      best = std::min(best, std::max(a.f1 - r.f1, a.f2 - r.f2));
    }
    eps = std::max(eps, best);
  }
  return eps;
}

double inverted_generational_distance(
    const std::vector<Point2>& approximation,
    const std::vector<Point2>& reference) {
  return mean_nearest_distance(reference, approximation);
}

}  // namespace bofl::pareto
