// Dense linear programming via the two-phase primal simplex method.
//
// This backs the branch-and-bound ILP solver used for BoFL's per-round
// exploitation problem (Eqn. 1).  Problems are tiny (a handful of
// constraints, tens of variables), so a dense tableau with Bland's
// anti-cycling rule is simple, exact enough, and fast.
//
// Canonical form accepted:   minimize c^T x
//                            s.t.  a_i^T x  {<=, ==, >=}  b_i   for each row
//                                  x >= 0
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bofl::ilp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

struct LpConstraint {
  std::vector<double> coefficients;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  /// Objective coefficients (minimization).
  std::vector<double> objective;
  std::vector<LpConstraint> constraints;

  [[nodiscard]] std::size_t num_variables() const { return objective.size(); }
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;       ///< valid iff status == kOptimal
  double objective = 0.0;      ///< valid iff status == kOptimal
};

/// A single-variable bound x[var] {<=, >=} rhs.  Branch-and-bound nodes
/// carry these instead of dense rows; the simplex appends each as a row with
/// one unit coefficient, exactly as if it were an LpConstraint.
struct VarBound {
  std::size_t var = 0;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// Two-phase primal simplex over storage that is reused from one solve to
/// the next: the tableau, basis, c_B, phase objective, column masks and
/// solution keep their capacity, so a caller that solves many related LPs
/// (branch-and-bound) allocates only while the problems grow.  Not shared
/// between threads; each concurrent solver owns one.
class LpWorkspace {
 public:
  /// Solve `problem` with `bounds` appended after its constraints, in
  /// order.  Right-hand sides may be negative (rows are normalized
  /// internally).  The returned solution lives in the workspace and stays
  /// valid until the next call.  Throws std::invalid_argument on malformed
  /// input (mismatched row widths, a bound on a missing variable).
  const LpSolution& solve(const LpProblem& problem,
                          std::span<const VarBound> bounds = {});

 private:
  std::vector<double> cells_;            ///< tableau, rows x (cols + 1)
  std::vector<std::size_t> basis_;       ///< basis_[r] = column basic in row r
  std::vector<double> cb_;               ///< objective coefficient of basis_[r]
  std::vector<double> phase_objective_;  ///< the running phase's costs
  std::vector<bool> is_artificial_;
  std::vector<bool> allowed_;            ///< columns eligible to enter
  LpSolution solution_;
};

/// Solve with two-phase primal simplex in a one-off workspace.
[[nodiscard]] inline LpSolution solve_lp(const LpProblem& problem) {
  LpWorkspace workspace;
  return workspace.solve(problem);
}

}  // namespace bofl::ilp
