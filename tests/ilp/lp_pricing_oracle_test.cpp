// Differential oracle for the simplex pricing rule.  solve_lp prices
// columns lazily: in index order, stopping at Bland's entering column.  The
// oracle below is the full-pricing solver it replaced, which fills every
// column's reduced cost on every pivot and then takes the first negative
// one.  Both must pick the same entering column at every pivot, so status,
// solution and objective agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ilp/lp.hpp"
#include "ilp/scheduler_lp.hpp"

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

/// Reduced costs for objective `c` (length = tableau cols; zero-padded) in
/// the current basis: z_j = c_j - c_B^T B^{-1} A_j, computed directly from
/// the tableau (which already stores B^{-1} A).
std::vector<double> reduced_costs(const SimplexState& s,
                                  const std::vector<double>& c) {
  const Tableau& t = s.tableau;
  std::vector<double> z(t.cols(), 0.0);
  for (std::size_t j = 0; j < t.cols(); ++j) {
    double value = j < c.size() ? c[j] : 0.0;
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double cb = s.basis[r] < c.size() ? c[s.basis[r]] : 0.0;
      if (cb != 0.0) {
        value -= cb * t.at(r, j);
      }
    }
    z[j] = value;
  }
  return z;
}

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
  // Bland's rule terminates finitely, so this loop cannot cycle; the guard
  // is belt-and-braces against numerical trouble.
  const std::size_t max_pivots =
      50 * (s.tableau.rows() + s.tableau.cols()) + 1000;
  for (std::size_t iter = 0; iter < max_pivots; ++iter) {
    const std::vector<double> z = reduced_costs(s, c);
    // Bland: entering column = smallest index with negative reduced cost.
    std::size_t entering = s.tableau.cols();
    for (std::size_t j = 0; j < s.tableau.cols(); ++j) {
      if (allowed[j] && z[j] < -kEps) {
        entering = j;
        break;
      }
    }
    if (entering == s.tableau.cols()) {
      return PhaseResult::kOptimal;
    }
    // Ratio test: leaving row minimizes rhs / a_rj over a_rj > 0; Bland
    // tie-break on the smallest basis column index.
    std::size_t leaving = s.tableau.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < s.tableau.rows(); ++r) {
      const double a = s.tableau.at(r, entering);
      if (a > kEps) {
        const double ratio = s.tableau.rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && leaving < s.tableau.rows() &&
             s.basis[r] < s.basis[leaving])) {
          best_ratio = ratio;
          leaving = r;
        }
      }
    }
    if (leaving == s.tableau.rows()) {
      return PhaseResult::kUnbounded;
    }
    s.tableau.pivot(leaving, entering);
    s.basis[leaving] = entering;
  }
  BOFL_ASSERT(false, "simplex exceeded its pivot budget");
}

LpSolution full_pricing_solve_lp(const LpProblem& problem) {
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A random LP of 1-6 variables and 1-5 rows.  Small integer coefficients,
/// zero right-hand sides and repeated rows make ties and degenerate pivots
/// common; negative right-hand sides exercise row normalization.
LpProblem random_lp(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 5));
  const bool integral = rng.uniform() < 0.5;
  auto coefficient = [&] {
    return integral ? static_cast<double>(rng.uniform_int(-3, 3))
                    : rng.uniform(-2.0, 2.0);
  };
  LpProblem p;
  p.objective.resize(n);
  for (double& c : p.objective) {
    c = coefficient();
  }
  for (std::size_t r = 0; r < m; ++r) {
    if (r > 0 && rng.uniform() < 0.15) {
      p.constraints.push_back(p.constraints[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(r) - 1))]);
      continue;
    }
    LpConstraint row;
    row.coefficients.resize(n);
    for (double& a : row.coefficients) {
      a = coefficient();
    }
    const std::int64_t rel = rng.uniform_int(0, 2);
    row.relation = rel == 0   ? Relation::kLessEqual
                   : rel == 1 ? Relation::kEqual
                              : Relation::kGreaterEqual;
    row.rhs = rng.uniform() < 0.2 ? 0.0 : coefficient() * 3.0;
    p.constraints.push_back(std::move(row));
  }
  return p;
}

TEST(SimplexLp, LazyPricingMatchesFullPricing) {
  Rng rng(20261019);
  int statuses[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) {
    const LpProblem p = i < 4000 ? random_lp(rng) : scheduler_lp(rng);
    const LpSolution lazy = solve_lp(p);
    const LpSolution full = full_pricing_solve_lp(p);
    ASSERT_EQ(lazy.status, full.status) << "problem " << i;
    ++statuses[static_cast<int>(lazy.status)];
    ASSERT_EQ(lazy.x.size(), full.x.size()) << "problem " << i;
    for (std::size_t j = 0; j < lazy.x.size(); ++j) {
      EXPECT_EQ(bits(lazy.x[j]), bits(full.x[j]))
          << "problem " << i << " x[" << j << "]";
    }
    EXPECT_EQ(bits(lazy.objective), bits(full.objective)) << "problem " << i;
  }
  // Every outcome occurs, so each path of the solver was compared.
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kOptimal)], 0);
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kInfeasible)], 0);
  EXPECT_GT(statuses[static_cast<int>(LpStatus::kUnbounded)], 0);
}

}  // namespace
}  // namespace bofl::ilp
