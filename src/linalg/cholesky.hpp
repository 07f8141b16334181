// Cholesky factorization and triangular solves.
//
// The GP layer conditions on observations through K = L L^T.  Kernel
// matrices can be numerically semi-definite when observations nearly
// coincide, so `cholesky_with_jitter` retries with geometrically increasing
// diagonal jitter — the standard GP-library recipe.  The factorizations
// and the Cholesky solve write into caller-owned storage, so a caller that
// refits many times (the hyperparameter search) allocates only once.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace bofl::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix,
/// written into `l` (reshaped to a's size, its storage reused; the strict
/// upper triangle is zero).  Returns false if the matrix is not
/// (numerically) positive definite; `l` then holds no usable factor.
[[nodiscard]] bool cholesky(const Matrix& a, Matrix& l);

/// Cholesky with escalating diagonal jitter: factors a + jitter * I into `l`
/// for jitter values 0, j0, 10*j0, ... up to `max_jitter` and returns the
/// first jitter that factors; `a` itself is never copied or changed.
/// Throws InternalError if even the largest jitter fails (which indicates a
/// structurally broken matrix).
[[nodiscard]] double cholesky_with_jitter(const Matrix& a, Matrix& l,
                                          double initial_jitter = 1e-10,
                                          double max_jitter = 1e-2);

/// Rank-1 extension of a Cholesky factor: given the n x n factor L of A,
/// the cross-covariance column `cross` = A'[0..n, n] and the new diagonal
/// entry `diag` = A'[n, n], returns the (n+1) x (n+1) factor of the
/// bordered matrix A' in O(n^2) (one forward substitution) instead of the
/// O(n^3) from-scratch refactorization.  Returns std::nullopt when the
/// appended row makes the matrix numerically indefinite (e.g. a duplicate
/// point with no observation noise) — callers fall back to a full
/// `cholesky_with_jitter` refit in that case.
[[nodiscard]] std::optional<Matrix> cholesky_append_row(const Matrix& l,
                                                        const Vector& cross,
                                                        double diag);

/// Solve L x = b with L lower triangular (forward substitution).
[[nodiscard]] Vector solve_lower(const Matrix& l, const Vector& b);

/// Solve L X = B for m right-hand sides given as the *columns* of the
/// row-major n x m matrix `b`.  One blocked forward substitution whose
/// inner loops are unit-stride across the m systems — the GP uses this to
/// get posterior variances for a whole candidate block at once.
[[nodiscard]] Matrix solve_lower_multi(const Matrix& l, const Matrix& b);

/// Solve L^T x = b with L lower triangular (backward substitution) in
/// place: `x` holds b on entry and the solution on exit.
void solve_lower_transpose_in_place(const Matrix& l, Vector& x);

/// Solve (L L^T) x = b given the Cholesky factor L, into `x` (resized, its
/// storage reused).
void solve_cholesky(const Matrix& l, const Vector& b, Vector& x);

/// log det(L L^T) = 2 * sum_i log L_ii, given the Cholesky factor L.
[[nodiscard]] double log_det_from_cholesky(const Matrix& l);

}  // namespace bofl::linalg
