#include "linalg/cholesky.hpp"

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "linalg/simd/dispatch.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::linalg {

namespace {

using DotFn = double (*)(const double*, const double*, std::size_t);

/// The row-prefix dot behind every inner reduction here (historically the
/// local dot_n four-way accumulator split, now simd::dot_blocked_scalar).
/// The factorizations call it O(n^2) times on short prefixes, so each entry
/// point hoists the dispatch branch out of its loops by picking the
/// implementation once.
inline DotFn pick_dot() {
  return simd::active_level() == simd::Level::kAvx2 ? simd::dot_avx2
                                                    : simd::dot_blocked_scalar;
}

/// Forward substitution L x = b in place: `x` holds b on entry.  Row i
/// reads only the solved prefix x[0..i) and its own entry, so no separate
/// right-hand side is needed.
void solve_lower_in_place(const Matrix& l, Vector& x) {
  const std::size_t n = x.size();
  const DotFn dot_n = pick_dot();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row(i);
    x[i] = (x[i] - dot_n(li, x.data(), i)) / li[i];
  }
}

/// Factor a + shift * I into l.  The shift is added to each diagonal entry
/// before its reduction, as the jittered copy of `a` used to hold it; a zero
/// shift leaves every value a factorization can accept unchanged.
bool cholesky_shifted(const Matrix& a, double shift, Matrix& l) {
  BOFL_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  l.assign(n, n, 0.0);
  // Cholesky–Banachiewicz (row-by-row): every inner reduction is a dot of
  // two contiguous row prefixes, so the whole factorization streams
  // unit-stride through the row-major storage.
  const DotFn dot_n = pick_dot();
  for (std::size_t i = 0; i < n; ++i) {
    double* li = l.row(i);
    const double* ai = a.row(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double* lj = l.row(j);
      li[j] = (ai[j] - dot_n(li, lj, j)) / lj[j];
    }
    const double diag = (ai[i] + shift) - dot_n(li, li, i);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return false;
    }
    li[i] = std::sqrt(diag);
  }
  return true;
}

}  // namespace

bool cholesky(const Matrix& a, Matrix& l) {
  return cholesky_shifted(a, 0.0, l);
}

double cholesky_with_jitter(const Matrix& a, Matrix& l, double initial_jitter,
                            double max_jitter) {
  BOFL_REQUIRE(initial_jitter > 0.0 && initial_jitter <= max_jitter,
               "need 0 < initial_jitter <= max_jitter");
  if (cholesky(a, l)) {
    return 0.0;
  }
  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 10.0) {
    if (cholesky_shifted(a, jitter, l)) {
      return jitter;
    }
  }
  // [[noreturn]], so unlike BOFL_ASSERT(false, ...) no -O0 build warns.
  detail::throw_assert_failure(
      "jitter <= max_jitter",
      "matrix not positive definite even with maximal jitter");
}

std::optional<Matrix> cholesky_append_row(const Matrix& l, const Vector& cross,
                                          double diag) {
  BOFL_REQUIRE(l.rows() == l.cols(), "cholesky_append_row needs a square L");
  BOFL_REQUIRE(cross.size() == l.rows(),
               "cholesky_append_row cross-covariance length mismatch");
  const std::size_t n = l.rows();
  // A' = [[A, k], [k^T, kappa]] factors as
  //   L' = [[L, 0], [l12^T, l22]]  with  L l12 = k,  l22^2 = kappa - |l12|^2.
  // Solving for l12 is one forward substitution: O(n^2) total, against the
  // O(n^3) of refactorizing A' from scratch.
  Matrix out(n + 1, n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(out.row(i), l.row(i), (i + 1) * sizeof(double));
  }
  double* last = out.row(n);
  double norm2_l12 = 0.0;
  const DotFn dot_n = pick_dot();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row(i);
    const double v = (cross[i] - dot_n(li, last, i)) / li[i];
    last[i] = v;
    norm2_l12 += v * v;
  }
  const double d = diag - norm2_l12;
  // Reject near-singular tails (duplicate or nearly coincident points with
  // no noise): a relative guard, because sqrt of a catastrophically
  // cancelled difference would poison every later solve with 1/l22.
  if (!std::isfinite(d) || d <= 1e-12 * std::abs(diag)) {
    return std::nullopt;
  }
  last[n] = std::sqrt(d);
  return out;
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  BOFL_REQUIRE(l.rows() == l.cols() && l.rows() == b.size(),
               "solve_lower shape mismatch");
  Vector x = b;
  solve_lower_in_place(l, x);
  return x;
}

Matrix solve_lower_multi(const Matrix& l, const Matrix& b) {
  BOFL_REQUIRE(l.rows() == l.cols() && l.rows() == b.rows(),
               "solve_lower_multi shape mismatch");
  const std::size_t n = b.rows();
  const std::size_t m = b.cols();
  Matrix x = b;
  // Forward substitution vectorized across the m right-hand sides; the
  // dispatched kernel (linalg/simd/kernels.hpp) keeps the unit-stride axpy
  // structure, with the AVX2 path register-blocking four eliminated rows.
  simd::solve_lower_multi_inplace(l.row(0), n, x.row(0), m);
  return x;
}

void solve_lower_transpose_in_place(const Matrix& l, Vector& x) {
  BOFL_REQUIRE(l.rows() == l.cols() && l.rows() == x.size(),
               "solve_lower_transpose shape mismatch");
  const std::size_t n = x.size();
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      sum -= l(j, ii) * x[j];
    }
    x[ii] = sum / l(ii, ii);
  }
}

void solve_cholesky(const Matrix& l, const Vector& b, Vector& x) {
  BOFL_REQUIRE(l.rows() == l.cols() && l.rows() == b.size(),
               "solve_cholesky shape mismatch");
  x.assign(b.begin(), b.end());
  solve_lower_in_place(l, x);
  solve_lower_transpose_in_place(l, x);
}

double log_det_from_cholesky(const Matrix& l) {
  double sum = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) {
    sum += std::log(l(i, i));
  }
  return 2.0 * sum;
}

}  // namespace bofl::linalg
