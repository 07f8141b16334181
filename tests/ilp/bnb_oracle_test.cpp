// Differential oracle for branch-and-bound's node representation.
// solve_ilp gives each node a chain of single-variable bounds and solves its
// relaxation in one simplex workspace per solve.  The oracle below is the
// solver it replaced: every node carries its bounds as dense LpConstraint
// rows and solves a full copy of the problem with those rows appended.  Both
// must build the same relaxation at every node, so status, solution,
// objective bits and the explored node count all agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ilp/branch_and_bound.hpp"
#include "ilp/lp.hpp"
#include "ilp/scheduler_lp.hpp"

namespace bofl::ilp {
namespace {

constexpr double kIntegralityTolerance = 1e-6;

struct Node {
  // Extra variable bounds accumulated along the branching path, encoded as
  // plain constraints appended to the base problem.
  std::vector<LpConstraint> extra;
  double lower_bound = -std::numeric_limits<double>::infinity();

  // Best-first: smaller LP bound explored first.
  friend bool operator<(const Node& a, const Node& b) {
    return a.lower_bound > b.lower_bound;  // priority_queue is a max-heap
  }
};

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

LpConstraint bound_constraint(std::size_t var, std::size_t n, Relation rel,
                              double rhs) {
  LpConstraint c;
  c.coefficients.assign(n, 0.0);
  c.coefficients[var] = 1.0;
  c.relation = rel;
  c.rhs = rhs;
  return c;
}

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

IlpSolution row_appending_solve_ilp(const LpProblem& problem,
                                    const IlpOptions& options) {
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

  std::priority_queue<Node> open;
  open.push(Node{});

  std::size_t nodes = 0;
  bool node_limit_hit = false;
  while (!open.empty()) {
    if (nodes >= options.max_nodes) {
      node_limit_hit = true;
      break;
    }
    Node node = open.top();
    open.pop();
    const double prune_margin =
        std::max(1e-12, options.relative_gap * std::abs(incumbent));
    if (node.lower_bound >= incumbent - prune_margin) {
      continue;
    }
    ++nodes;

    LpProblem relaxation = problem;
    relaxation.constraints.insert(relaxation.constraints.end(),
                                  node.extra.begin(), node.extra.end());
    const LpSolution lp = solve_lp(relaxation);
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
    Node down;
    down.extra = node.extra;
    down.extra.push_back(bound_constraint(branch_var, n, Relation::kLessEqual,
                                          std::floor(value)));
    down.lower_bound = lp.objective;
    open.push(std::move(down));

    Node up;
    up.extra = node.extra;
    up.extra.push_back(bound_constraint(branch_var, n, Relation::kGreaterEqual,
                                        std::ceil(value)));
    up.lower_bound = lp.objective;
    open.push(std::move(up));
  }

  best.nodes_explored = nodes;
  if (best.status != IlpStatus::kOptimal && node_limit_hit) {
    best.status = IlpStatus::kNodeLimit;
  }
  return best;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(BranchAndBoundOracle, BoundChainsMatchRowAppendingSolver) {
  Rng rng(20261020);
  int statuses[3] = {0, 0, 0};
  int warm_kept = 0;
  int warm_ignored = 0;
  int branched = 0;
  std::size_t deepest = 0;
  for (int i = 0; i < 4000; ++i) {
    const LpProblem p = scheduler_lp(rng);
    const std::size_t k = p.num_variables();
    const auto jobs = static_cast<std::int64_t>(p.constraints[0].rhs);
    IlpOptions options;
    // A quarter of the problems stop at a handful of nodes; the rest may
    // search up to 2,000.
    options.max_nodes = rng.uniform() < 0.25
                            ? static_cast<std::size_t>(rng.uniform_int(1, 6))
                            : 2000;
    if (rng.uniform() < 0.5) {
      options.relative_gap = 1e-9;  // the schedule solver's kind of gap
    }
    if (rng.uniform() < 0.5) {
      // Every job on one profile: feasible when that profile alone meets the
      // deadline and the bounds, otherwise validated away.
      options.warm_start.assign(k, 0);
      options.warm_start[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))] = jobs;
    }
    const IlpSolution got = solve_ilp(p, options);
    const IlpSolution want = row_appending_solve_ilp(p, options);
    ASSERT_EQ(got.status, want.status) << "problem " << i;
    ASSERT_EQ(got.nodes_explored, want.nodes_explored) << "problem " << i;
    ASSERT_EQ(got.x, want.x) << "problem " << i;
    ASSERT_EQ(bits(got.objective), bits(want.objective)) << "problem " << i;
    ++statuses[static_cast<int>(got.status)];
    branched += got.nodes_explored > 1 ? 1 : 0;
    deepest = std::max(deepest, got.nodes_explored);
    if (!options.warm_start.empty()) {
      ++(got.x == options.warm_start ? warm_kept : warm_ignored);
    }
  }
  // Every outcome occurs, warm starts both survive and lose, and over a
  // quarter of the trees branch (one past 100 nodes), so each path of the
  // solver was compared.
  EXPECT_GT(statuses[static_cast<int>(IlpStatus::kOptimal)], 0);
  EXPECT_GT(statuses[static_cast<int>(IlpStatus::kInfeasible)], 0);
  EXPECT_GT(statuses[static_cast<int>(IlpStatus::kNodeLimit)], 0);
  EXPECT_GT(warm_kept, 0);
  EXPECT_GT(warm_ignored, 0);
  EXPECT_GT(branched, 1000);
  EXPECT_GT(deepest, 100U);
}

// Bound rows with a negative right-hand side enter the tableau negated,
// zeros included (-0.0), exactly like the dense row they stand for.
TEST(BranchAndBoundOracle, BoundRowsMatchDenseRowsWithNegativeRhs) {
  Rng rng(7);
  LpWorkspace workspace;
  for (int i = 0; i < 2000; ++i) {
    const LpProblem base = scheduler_lp(rng);
    const std::size_t k = base.num_variables();
    std::vector<VarBound> bounds;
    LpProblem dense = base;
    const std::int64_t count = rng.uniform_int(1, 4);
    for (std::int64_t b = 0; b < count; ++b) {
      const VarBound bound{
          static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)),
          rng.uniform() < 0.5 ? Relation::kLessEqual : Relation::kGreaterEqual,
          static_cast<double>(rng.uniform_int(-3, 40))};
      bounds.push_back(bound);
      dense.constraints.push_back(
          bound_constraint(bound.var, k, bound.relation, bound.rhs));
    }
    const LpSolution& got = workspace.solve(base, bounds);
    const LpSolution want = solve_lp(dense);
    ASSERT_EQ(got.status, want.status) << "problem " << i;
    ASSERT_EQ(got.x.size(), want.x.size()) << "problem " << i;
    for (std::size_t j = 0; j < got.x.size(); ++j) {
      EXPECT_EQ(bits(got.x[j]), bits(want.x[j]))
          << "problem " << i << " x[" << j << "]";
    }
    EXPECT_EQ(bits(got.objective), bits(want.objective)) << "problem " << i;
  }
}

}  // namespace
}  // namespace bofl::ilp
