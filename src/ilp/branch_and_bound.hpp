// Branch-and-bound integer linear programming on top of the simplex LP.
//
// All variables are required to be non-negative integers.  The solver
// performs best-first branch and bound: each node's LP relaxation gives a
// lower bound; a fractional variable is branched into floor/ceil children,
// each carrying one more single-variable bound (ilp::VarBound) that the
// node's relaxation appends as a row.  The paper's exploitation step (§4.4)
// names exactly this algorithm family ("we solve the ILP problem with
// branch-and-bound").
#pragma once

#include <cstdint>

#include "ilp/lp.hpp"

namespace bofl::ilp {

struct IlpOptions {
  /// Hard cap on explored B&B nodes; a hit is reported via node_limit_hit.
  std::size_t max_nodes = 100000;
  /// Accept incumbents within this relative gap of the best bound: nodes
  /// with bound >= incumbent * (1 - gap) are pruned.  0 = prove exact
  /// optimality.  The schedule solver uses a sub-micro-joule gap, far below
  /// measurement noise, to avoid pathological tail exploration.
  double relative_gap = 0.0;
  /// Escape hatch for differential testing: when these options reach a
  /// ScheduleCache (directly or through BoflController / fl::Simulation),
  /// true bypasses the memo entirely and every round problem is re-solved
  /// from scratch.  solve_ilp itself ignores this flag.
  bool disable_cache = false;
  /// Optional feasible warm-start solution used as the initial incumbent
  /// (validated against the constraints; ignored if infeasible).  A good
  /// incumbent collapses the search: best-first B&B without one must
  /// blunder into its first integral node before any pruning happens.
  std::vector<std::int64_t> warm_start;
};

enum class IlpStatus { kOptimal, kInfeasible, kNodeLimit };

struct IlpSolution {
  IlpStatus status = IlpStatus::kInfeasible;
  std::vector<std::int64_t> x;  ///< valid iff status == kOptimal
  double objective = 0.0;       ///< valid iff status == kOptimal
  std::size_t nodes_explored = 0;
};

/// Minimize problem.objective over non-negative integer vectors satisfying
/// problem.constraints.  The continuous relaxation must be bounded (the
/// schedule problems always are because of the job-count equality).
[[nodiscard]] IlpSolution solve_ilp(const LpProblem& problem,
                                    const IlpOptions& options = {});

}  // namespace bofl::ilp
