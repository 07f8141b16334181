#include "common/optim.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace bofl {

namespace {

// Convergence: the simplex function-value spread and diameter both below.
constexpr double kFTolerance = 1e-9;
constexpr double kXTolerance = 1e-7;

struct Vertex {
  std::vector<double> x;
  double f;
};

}  // namespace

NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& f,
    const std::vector<double>& x0, const NelderMeadOptions& options) {
  BOFL_REQUIRE(!x0.empty(), "nelder_mead needs a non-empty starting point");
  const std::size_t n = x0.size();

  NelderMeadResult result;
  auto evaluate = [&](const std::vector<double>& x) {
    ++result.evaluations;
    const double v = f(x);
    // NaN poisons simplex ordering; treat it as "very bad" instead.
    return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
  };

  // Initial simplex: x0 plus a perturbation along each axis.
  std::vector<Vertex> simplex;
  simplex.reserve(n + 1);
  simplex.push_back({x0, evaluate(x0)});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x = x0;
    const double step =
        options.initial_step * std::max(std::abs(x[i]), 1.0);
    x[i] += step;
    simplex.push_back({std::move(x), 0.0});
    simplex.back().f = evaluate(simplex.back().x);
  }

  constexpr double alpha = 1.0;   // reflection
  constexpr double gamma = 2.0;   // expansion
  constexpr double rho = 0.5;     // contraction
  constexpr double sigma = 0.5;   // shrink

  auto order = [&] {
    std::sort(simplex.begin(), simplex.end(),
              [](const Vertex& a, const Vertex& b) { return a.f < b.f; });
  };
  order();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // Convergence check: function spread and simplex diameter.
    const double f_spread = simplex.back().f - simplex.front().f;
    double diameter = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double lo = simplex[0].x[i];
      double hi = lo;
      for (const Vertex& v : simplex) {
        lo = std::min(lo, v.x[i]);
        hi = std::max(hi, v.x[i]);
      }
      diameter = std::max(diameter, hi - lo);
    }
    if (f_spread < kFTolerance && diameter < kXTolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all vertices except the worst.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < n; ++i) {
        centroid[i] += simplex[v].x[i];
      }
    }
    for (double& c : centroid) {
      c /= static_cast<double>(n);
    }

    const Vertex& worst = simplex.back();
    auto blend = [&](double coeff) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = centroid[i] + coeff * (centroid[i] - worst.x[i]);
      }
      return x;
    };

    std::vector<double> reflected = blend(alpha);
    const double f_reflected = evaluate(reflected);

    if (f_reflected < simplex.front().f) {
      std::vector<double> expanded = blend(gamma);
      const double f_expanded = evaluate(expanded);
      if (f_expanded < f_reflected) {
        simplex.back() = {std::move(expanded), f_expanded};
      } else {
        simplex.back() = {std::move(reflected), f_reflected};
      }
    } else if (f_reflected < simplex[n - 1].f) {
      simplex.back() = {std::move(reflected), f_reflected};
    } else {
      // Contraction (outside if the reflected point improved on the worst).
      const bool outside = f_reflected < worst.f;
      std::vector<double> contracted = blend(outside ? rho : -rho);
      const double f_contracted = evaluate(contracted);
      const double reference = outside ? f_reflected : worst.f;
      if (f_contracted < reference) {
        simplex.back() = {std::move(contracted), f_contracted};
      } else {
        // Shrink toward the best vertex.
        for (std::size_t v = 1; v <= n; ++v) {
          for (std::size_t i = 0; i < n; ++i) {
            simplex[v].x[i] = simplex[0].x[i] +
                              sigma * (simplex[v].x[i] - simplex[0].x[i]);
          }
          simplex[v].f = evaluate(simplex[v].x);
        }
      }
    }
    order();
  }

  result.x = simplex.front().x;
  result.f = simplex.front().f;
  return result;
}

}  // namespace bofl
