#include "ilp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/error.hpp"

namespace bofl::ilp {

namespace {

/// Values within this distance of an integer are considered integral.
constexpr double kIntegralityTolerance = 1e-6;

/// No bound: the root of the branching tree.
constexpr std::size_t kNoLink = static_cast<std::size_t>(-1);

/// One branching decision on a node's path: its bound and the link of the
/// node it was made at (kNoLink at the root).  Links live in one arena per
/// solve, so a node is a bound, a lower bound and an index.
struct PathLink {
  VarBound bound;
  std::size_t parent = kNoLink;
};

struct Node {
  double lower_bound = -std::numeric_limits<double>::infinity();
  // The last bound on the branching path (an index into the solve's arena).
  std::size_t last_link = kNoLink;

  // Best-first: smaller LP bound explored first.
  friend bool operator<(const Node& a, const Node& b) {
    return a.lower_bound > b.lower_bound;  // priority_queue is a max-heap
  }
};

/// Index of the "most fractional" coordinate, or x.size() if all integral.
std::size_t most_fractional(const std::vector<double>& x) {
  std::size_t best = x.size();
  double best_distance = kIntegralityTolerance;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double frac = x[i] - std::floor(x[i]);
    const double distance = std::min(frac, 1.0 - frac);
    if (distance > best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

/// Check a candidate integral point against every constraint.
bool is_feasible(const LpProblem& problem,
                 const std::vector<std::int64_t>& x) {
  if (x.size() != problem.num_variables()) {
    return false;
  }
  for (const std::int64_t v : x) {
    if (v < 0) {
      return false;
    }
  }
  for (const LpConstraint& c : problem.constraints) {
    double lhs = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      lhs += c.coefficients[i] * static_cast<double>(x[i]);
    }
    switch (c.relation) {
      case Relation::kLessEqual:
        if (lhs > c.rhs + 1e-7) {
          return false;
        }
        break;
      case Relation::kGreaterEqual:
        if (lhs < c.rhs - 1e-7) {
          return false;
        }
        break;
      case Relation::kEqual:
        if (std::abs(lhs - c.rhs) > 1e-7) {
          return false;
        }
        break;
    }
  }
  return true;
}

double objective_of(const LpProblem& problem,
                    const std::vector<std::int64_t>& x) {
  double value = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    value += problem.objective[i] * static_cast<double>(x[i]);
  }
  return value;
}

}  // namespace

IlpSolution solve_ilp(const LpProblem& problem, const IlpOptions& options) {
  const std::size_t n = problem.num_variables();
  BOFL_REQUIRE(n > 0, "ILP needs at least one variable");

  IlpSolution best;
  best.status = IlpStatus::kInfeasible;
  double incumbent = std::numeric_limits<double>::infinity();
  if (!options.warm_start.empty() && is_feasible(problem, options.warm_start)) {
    incumbent = objective_of(problem, options.warm_start);
    best.status = IlpStatus::kOptimal;
    best.objective = incumbent;
    best.x = options.warm_start;
  }

  // Per-solve storage: the arena of path links, the current node's bounds
  // in root-to-leaf order and the simplex buffers, reused by every node.
  std::vector<PathLink> links;
  std::vector<VarBound> path;
  LpWorkspace workspace;
  std::priority_queue<Node> open;
  open.push(Node{});

  std::size_t nodes = 0;
  bool node_limit_hit = false;
  while (!open.empty()) {
    if (nodes >= options.max_nodes) {
      node_limit_hit = true;
      break;
    }
    const Node node = open.top();
    open.pop();
    const double prune_margin =
        std::max(1e-12, options.relative_gap * std::abs(incumbent));
    if (node.lower_bound >= incumbent - prune_margin) {
      continue;  // cannot (meaningfully) beat the incumbent
    }
    ++nodes;

    // The relaxation is the base problem with the path's bounds appended
    // as rows, root first.
    path.clear();
    for (std::size_t l = node.last_link; l != kNoLink; l = links[l].parent) {
      path.push_back(links[l].bound);
    }
    std::reverse(path.begin(), path.end());
    const LpSolution& lp = workspace.solve(problem, path);
    if (lp.status == LpStatus::kInfeasible) {
      continue;
    }
    BOFL_ASSERT(lp.status == LpStatus::kOptimal,
                "ILP relaxation must be bounded");
    if (lp.objective >= incumbent - prune_margin) {
      continue;
    }

    const std::size_t branch_var = most_fractional(lp.x);
    if (branch_var == n) {
      // Integral solution: new incumbent.
      incumbent = lp.objective;
      best.status = IlpStatus::kOptimal;
      best.objective = lp.objective;
      best.x.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        best.x[i] = static_cast<std::int64_t>(std::llround(lp.x[i]));
      }
      continue;
    }

    const double value = lp.x[branch_var];
    links.push_back(
        {{branch_var, Relation::kLessEqual, std::floor(value)}, node.last_link});
    open.push(Node{lp.objective, links.size() - 1});
    links.push_back(
        {{branch_var, Relation::kGreaterEqual, std::ceil(value)},
         node.last_link});
    open.push(Node{lp.objective, links.size() - 1});
  }

  best.nodes_explored = nodes;
  if (best.status != IlpStatus::kOptimal && node_limit_hit) {
    best.status = IlpStatus::kNodeLimit;
  }
  return best;
}

}  // namespace bofl::ilp
