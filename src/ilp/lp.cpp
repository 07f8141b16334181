#include "ilp/lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace bofl::ilp {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau.  Rows = constraints, columns = all variables
/// (structural + slack/surplus + artificial) plus the RHS column.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * (cols + 1), 0.0) {}

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
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> cells_;
};

struct SimplexState {
  Tableau tableau;
  std::vector<std::size_t> basis;  ///< basis[r] = column basic in row r
};

double basis_objective(const SimplexState& s, const std::vector<double>& c) {
  double value = 0.0;
  for (std::size_t r = 0; r < s.tableau.rows(); ++r) {
    const double cb = s.basis[r] < c.size() ? c[s.basis[r]] : 0.0;
    value += cb * s.tableau.rhs(r);
  }
  return value;
}

enum class PhaseResult { kOptimal, kUnbounded };

/// Run primal simplex with Bland's rule until optimality or unboundedness.
/// `allowed` masks the columns eligible to enter (used in phase 2 to keep
/// artificials out).
PhaseResult run_simplex(SimplexState& s, const std::vector<double>& c,
                        const std::vector<bool>& allowed) {
  const Tableau& t = s.tableau;
  // c_B: the objective coefficient of each row's basic column.
  std::vector<double> cb(t.rows());
  for (std::size_t r = 0; r < t.rows(); ++r) {
    cb[r] = s.basis[r] < c.size() ? c[s.basis[r]] : 0.0;
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
             s.basis[r] < s.basis[leaving])) {
          best_ratio = ratio;
          leaving = r;
        }
      }
    }
    if (leaving == t.rows()) {
      return PhaseResult::kUnbounded;
    }
    s.tableau.pivot(leaving, entering);
    s.basis[leaving] = entering;
    cb[leaving] = entering < c.size() ? c[entering] : 0.0;
  }
  // [[noreturn]], so unlike BOFL_ASSERT(false, ...) no -O0 build warns.
  detail::throw_assert_failure("iter < max_pivots",
                               "simplex exceeded its pivot budget");
}

}  // namespace

LpSolution solve_lp(const LpProblem& problem) {
  const std::size_t n = problem.num_variables();
  BOFL_REQUIRE(n > 0, "LP needs at least one variable");
  for (const LpConstraint& row : problem.constraints) {
    BOFL_REQUIRE(row.coefficients.size() == n,
                 "constraint width must match variable count");
  }
  const std::size_t m = problem.constraints.size();

  // Normalize rows to non-negative RHS, then count auxiliary columns.
  struct Row {
    std::vector<double> a;
    Relation rel;
    double b;
  };
  std::vector<Row> rows;
  rows.reserve(m);
  for (const LpConstraint& c : problem.constraints) {
    Row row{c.coefficients, c.relation, c.rhs};
    if (row.b < 0.0) {
      for (double& v : row.a) {
        v = -v;
      }
      row.b = -row.b;
      if (row.rel == Relation::kLessEqual) {
        row.rel = Relation::kGreaterEqual;
      } else if (row.rel == Relation::kGreaterEqual) {
        row.rel = Relation::kLessEqual;
      }
    }
    rows.push_back(std::move(row));
  }

  std::size_t num_slack = 0;
  std::size_t num_artificial = 0;
  for (const Row& row : rows) {
    if (row.rel != Relation::kEqual) {
      ++num_slack;
    }
    if (row.rel != Relation::kLessEqual) {
      ++num_artificial;
    }
  }
  const std::size_t total_cols = n + num_slack + num_artificial;

  SimplexState state{Tableau(m, total_cols), std::vector<std::size_t>(m, 0)};
  std::size_t slack_col = n;
  std::size_t artificial_col = n + num_slack;
  std::vector<bool> is_artificial(total_cols, false);
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = rows[r];
    for (std::size_t j = 0; j < n; ++j) {
      state.tableau.at(r, j) = row.a[j];
    }
    state.tableau.rhs(r) = row.b;
    switch (row.rel) {
      case Relation::kLessEqual:
        state.tableau.at(r, slack_col) = 1.0;
        state.basis[r] = slack_col++;
        break;
      case Relation::kGreaterEqual:
        state.tableau.at(r, slack_col) = -1.0;  // surplus
        ++slack_col;
        state.tableau.at(r, artificial_col) = 1.0;
        is_artificial[artificial_col] = true;
        state.basis[r] = artificial_col++;
        break;
      case Relation::kEqual:
        state.tableau.at(r, artificial_col) = 1.0;
        is_artificial[artificial_col] = true;
        state.basis[r] = artificial_col++;
        break;
    }
  }

  std::vector<bool> all_columns(total_cols, true);

  // Phase 1: minimize the sum of artificial variables.
  if (num_artificial > 0) {
    std::vector<double> phase1_objective(total_cols, 0.0);
    for (std::size_t j = 0; j < total_cols; ++j) {
      if (is_artificial[j]) {
        phase1_objective[j] = 1.0;
      }
    }
    const PhaseResult result =
        run_simplex(state, phase1_objective, all_columns);
    BOFL_ASSERT(result == PhaseResult::kOptimal,
                "phase-1 LP cannot be unbounded");
    if (basis_objective(state, phase1_objective) > 1e-7) {
      return {LpStatus::kInfeasible, {}, 0.0};
    }
    // Pivot any artificial still (degenerately) basic out of the basis.
    for (std::size_t r = 0; r < m; ++r) {
      if (!is_artificial[state.basis[r]]) {
        continue;
      }
      bool pivoted = false;
      for (std::size_t j = 0; j < total_cols && !pivoted; ++j) {
        if (!is_artificial[j] &&
            std::abs(state.tableau.at(r, j)) > kEps) {
          state.tableau.pivot(r, j);
          state.basis[r] = j;
          pivoted = true;
        }
      }
      // If no pivot exists the row is all-zero (redundant constraint); the
      // artificial stays basic at value 0, which is harmless in phase 2 as
      // long as it cannot re-enter (masked below).
    }
  }

  // Phase 2: minimize the real objective, artificial columns barred.
  std::vector<bool> allowed(total_cols, true);
  for (std::size_t j = 0; j < total_cols; ++j) {
    if (is_artificial[j]) {
      allowed[j] = false;
    }
  }
  std::vector<double> phase2_objective(total_cols, 0.0);
  std::copy(problem.objective.begin(), problem.objective.end(),
            phase2_objective.begin());
  const PhaseResult result = run_simplex(state, phase2_objective, allowed);
  if (result == PhaseResult::kUnbounded) {
    return {LpStatus::kUnbounded, {}, 0.0};
  }

  LpSolution solution;
  solution.status = LpStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (state.basis[r] < n) {
      solution.x[state.basis[r]] = state.tableau.rhs(r);
    }
  }
  solution.objective = basis_objective(state, phase2_objective);
  return solution;
}

}  // namespace bofl::ilp
