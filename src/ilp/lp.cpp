#include "ilp/lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl::ilp {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau over workspace storage.  Rows = constraints,
/// columns = all variables (structural + slack/surplus + artificial) plus
/// the RHS column.
class Tableau {
 public:
  Tableau(double* cells, std::size_t rows, std::size_t cols)
      : cells_(cells), rows_(rows), cols_(cols) {}

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return cells_[r * (cols_ + 1) + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return cells_[r * (cols_ + 1) + c];
  }
  [[nodiscard]] double& rhs(std::size_t r) { return at(r, cols_); }
  [[nodiscard]] double rhs(std::size_t r) const { return at(r, cols_); }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Gaussian pivot on (pivot_row, pivot_col).
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const double p = at(pivot_row, pivot_col);
    BOFL_ASSERT(std::abs(p) > kEps, "degenerate simplex pivot");
    for (std::size_t c = 0; c <= cols_; ++c) {
      at(pivot_row, c) /= p;
    }
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pivot_row) {
        continue;
      }
      const double factor = at(r, pivot_col);
      if (std::abs(factor) < kEps) {
        continue;
      }
      for (std::size_t c = 0; c <= cols_; ++c) {
        at(r, c) -= factor * at(pivot_row, c);
      }
    }
  }

 private:
  double* cells_;
  std::size_t rows_;
  std::size_t cols_;
};

double basis_objective(const Tableau& t, const std::vector<std::size_t>& basis,
                       const std::vector<double>& c) {
  double value = 0.0;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const double cb = basis[r] < c.size() ? c[basis[r]] : 0.0;
    value += cb * t.rhs(r);
  }
  return value;
}

/// The relation of a row once it is normalized to a non-negative RHS: a
/// row with rhs < 0 is negated, which flips its inequality.
Relation normalized_relation(Relation relation, double rhs) {
  if (!(rhs < 0.0) || relation == Relation::kEqual) {
    return relation;
  }
  return relation == Relation::kLessEqual ? Relation::kGreaterEqual
                                          : Relation::kLessEqual;
}

enum class PhaseResult { kOptimal, kUnbounded };

/// Run primal simplex with Bland's rule until optimality or unboundedness.
/// `allowed` masks the columns eligible to enter (used in phase 2 to keep
/// artificials out).
PhaseResult run_simplex(Tableau& t, std::vector<std::size_t>& basis,
                        const std::vector<double>& c,
                        const std::vector<bool>& allowed,
                        std::vector<double>& cb) {
  // c_B: the objective coefficient of each row's basic column.
  cb.resize(t.rows());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    cb[r] = basis[r] < c.size() ? c[basis[r]] : 0.0;
  }
  // Bland's rule terminates finitely, so this loop cannot cycle; the guard
  // is belt-and-braces against numerical trouble.
  const std::size_t max_pivots = 50 * (t.rows() + t.cols()) + 1000;
  for (std::size_t iter = 0; iter < max_pivots; ++iter) {
    // Bland: the entering column is the smallest allowed index with a
    // negative reduced cost z_j = c_j - c_B^T B^{-1} A_j (the tableau
    // already stores B^{-1} A).  Columns are priced in index order and
    // pricing stops at the first such column.
    std::size_t entering = t.cols();
    for (std::size_t j = 0; j < t.cols(); ++j) {
      if (!allowed[j]) {
        continue;
      }
      double z = j < c.size() ? c[j] : 0.0;
      for (std::size_t r = 0; r < t.rows(); ++r) {
        if (cb[r] != 0.0) {
          z -= cb[r] * t.at(r, j);
        }
      }
      if (z < -kEps) {
        entering = j;
        break;
      }
    }
    if (entering == t.cols()) {
      return PhaseResult::kOptimal;
    }
    // Ratio test: leaving row minimizes rhs / a_rj over a_rj > 0; Bland
    // tie-break on the smallest basis column index.
    std::size_t leaving = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double a = t.at(r, entering);
      if (a > kEps) {
        const double ratio = t.rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leaving < t.rows() &&
             basis[r] < basis[leaving])) {
          best_ratio = ratio;
          leaving = r;
        }
      }
    }
    if (leaving == t.rows()) {
      return PhaseResult::kUnbounded;
    }
    t.pivot(leaving, entering);
    basis[leaving] = entering;
    cb[leaving] = entering < c.size() ? c[entering] : 0.0;
  }
  // [[noreturn]], so unlike BOFL_ASSERT(false, ...) no -O0 build warns.
  detail::throw_assert_failure("iter < max_pivots",
                               "simplex exceeded its pivot budget");
}

}  // namespace

const LpSolution& LpWorkspace::solve(const LpProblem& problem,
                                     std::span<const VarBound> bounds) {
  const std::size_t n = problem.num_variables();
  BOFL_REQUIRE(n > 0, "LP needs at least one variable");
  for (const LpConstraint& row : problem.constraints) {
    BOFL_REQUIRE(row.coefficients.size() == n,
                 "constraint width must match variable count");
  }
  for (const VarBound& bound : bounds) {
    BOFL_REQUIRE(bound.var < n, "bound on a missing variable");
  }
  const std::size_t base_rows = problem.constraints.size();
  const std::size_t m = base_rows + bounds.size();

  // Count the auxiliary columns of the rows normalized to non-negative RHS.
  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  auto count_row = [&](Relation relation, double rhs) {
    const Relation rel = normalized_relation(relation, rhs);
    if (rel != Relation::kEqual) {
      ++num_slack;
    }
    if (rel != Relation::kLessEqual) {
      ++num_artificial;
    }
  };
  for (const LpConstraint& c : problem.constraints) {
    count_row(c.relation, c.rhs);
  }
  for (const VarBound& bound : bounds) {
    count_row(bound.relation, bound.rhs);
  }
  const std::size_t total_cols = n + num_slack + num_artificial;

  cells_.assign(m * (total_cols + 1), 0.0);
  basis_.assign(m, 0);
  is_artificial_.assign(total_cols, false);
  Tableau t(cells_.data(), m, total_cols);
  std::size_t slack_col = n;
  std::size_t artificial_col = n + num_slack;
  auto add_auxiliary = [&](std::size_t r, Relation rel) {
    switch (rel) {
      case Relation::kLessEqual:
        t.at(r, slack_col) = 1.0;
        basis_[r] = slack_col++;
        break;
      case Relation::kGreaterEqual:
        t.at(r, slack_col) = -1.0;  // surplus
        ++slack_col;
        t.at(r, artificial_col) = 1.0;
        is_artificial_[artificial_col] = true;
        basis_[r] = artificial_col++;
        break;
      case Relation::kEqual:
        t.at(r, artificial_col) = 1.0;
        is_artificial_[artificial_col] = true;
        basis_[r] = artificial_col++;
        break;
    }
  };
  // A row with a negative RHS enters negated, every coefficient of it
  // (zeros become -0.0), so the tableau is bitwise the normalized row.
  for (std::size_t r = 0; r < base_rows; ++r) {
    const LpConstraint& c = problem.constraints[r];
    const bool flip = c.rhs < 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      t.at(r, j) = flip ? -c.coefficients[j] : c.coefficients[j];
    }
    t.rhs(r) = flip ? -c.rhs : c.rhs;
    add_auxiliary(r, normalized_relation(c.relation, c.rhs));
  }
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    const VarBound& bound = bounds[k];
    const std::size_t r = base_rows + k;
    const bool flip = bound.rhs < 0.0;
    if (flip) {
      for (std::size_t j = 0; j < n; ++j) {
        t.at(r, j) = -0.0;
      }
    }
    t.at(r, bound.var) = flip ? -1.0 : 1.0;
    t.rhs(r) = flip ? -bound.rhs : bound.rhs;
    add_auxiliary(r, normalized_relation(bound.relation, bound.rhs));
  }

  solution_.status = LpStatus::kInfeasible;
  solution_.x.clear();
  solution_.objective = 0.0;
  allowed_.assign(total_cols, true);

  // Phase 1: minimize the sum of artificial variables.
  if (num_artificial > 0) {
    phase_objective_.assign(total_cols, 0.0);
    for (std::size_t j = 0; j < total_cols; ++j) {
      if (is_artificial_[j]) {
        phase_objective_[j] = 1.0;
      }
    }
    const PhaseResult result =
        run_simplex(t, basis_, phase_objective_, allowed_, cb_);
    BOFL_ASSERT(result == PhaseResult::kOptimal,
                "phase-1 LP cannot be unbounded");
    if (basis_objective(t, basis_, phase_objective_) > 1e-7) {
      return solution_;
    }
    // Pivot any artificial still (degenerately) basic out of the basis.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial_[basis_[r]]) {
        continue;
      }
      bool pivoted = false;
      for (std::size_t j = 0; j < total_cols && !pivoted; ++j) {
        if (!is_artificial_[j] && std::abs(t.at(r, j)) > kEps) {
          t.pivot(r, j);
          basis_[r] = j;
          pivoted = true;
        }
      }
      // If no pivot exists the row is all-zero (redundant constraint); the
      // artificial stays basic at value 0, which is harmless in phase 2 as
      // long as it cannot re-enter (masked below).
    }
  }

  // Phase 2: minimize the real objective, artificial columns barred.
  for (std::size_t j = 0; j < total_cols; ++j) {
    if (is_artificial_[j]) {
      allowed_[j] = false;
    }
  }
  phase_objective_.assign(total_cols, 0.0);
  std::copy(problem.objective.begin(), problem.objective.end(),
            phase_objective_.begin());
  const PhaseResult result =
      run_simplex(t, basis_, phase_objective_, allowed_, cb_);
  if (result == PhaseResult::kUnbounded) {
    solution_.status = LpStatus::kUnbounded;
    return solution_;
  }

  solution_.status = LpStatus::kOptimal;
  solution_.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis_[r] < n) {
      solution_.x[basis_[r]] = t.rhs(r);
    }
  }
  solution_.objective = basis_objective(t, basis_, phase_objective_);
  return solution_;
}

}  // namespace bofl::ilp
