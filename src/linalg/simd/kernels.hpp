// The vectorized numeric kernels behind the GP/EHVI/linalg hot path.
//
// Each kernel has three entry points: the dispatching one (no suffix),
// which branches once on the resolved `dispatch.hpp` level, plus the
// `_scalar` and `_avx2` variants, exposed so the differential tests can
// compare the two implementations directly without flipping global state.
//
// Contract per kernel (the table lives in DESIGN.md §6h):
//   * `_scalar` is the exact pre-SIMD code, moved here verbatim — same
//     expression trees, same accumulator splits — so the scalar level
//     reproduces the repo's historical bits.
//   * Elementwise kernels (normal_pdf_cdf_batch, ehvi_strips) are
//     bit-identical between scalar and AVX2: the vector bodies use only
//     mul/add/sub/div/sqrt/min-max-emulation — never FMA, because the
//     scalar reference is compiled without contraction — and every output
//     element depends only on its own inputs.
//   * Reduction kernels (dot_*, solve_lower_multi_inplace,
//     sumsq_rows_accumulate, corr_row) fuse with FMA on the AVX2 path and
//     are tolerance-pinned against scalar; their lane-accumulation order is
//     fixed, so a given level is bit-deterministic across runs, thread
//     counts and block boundaries.
//
// The AVX2 variants require an AVX2+FMA machine (callers go through the
// dispatcher, which guarantees it); calling them elsewhere is undefined.
#pragma once

#include <cstddef>

namespace bofl::linalg::simd {

// ---------------------------------------------------------------------------
// Dot products.
//
// Two scalar reference semantics exist in the pre-SIMD code: linalg::dot's
// single-accumulator serial loop (GP posterior means) and the Cholesky
// layer's four-way accumulator split (factorization and triangular-solve
// inner dots).  Both share one AVX2 implementation; scalar dispatch keeps
// them distinct so each call site reproduces its historical bits.

/// Serial single-accumulator dot (the linalg::dot reference).
[[nodiscard]] double dot_serial(const double* a, const double* b,
                                std::size_t n);
[[nodiscard]] double dot_serial_scalar(const double* a, const double* b,
                                       std::size_t n);

/// Four-way-split dot (the Cholesky dot_n reference); cholesky.cpp picks it
/// or dot_avx2 once per factorization instead of dispatching per call.
[[nodiscard]] double dot_blocked_scalar(const double* a, const double* b,
                                        std::size_t n);

/// Shared AVX2 dot: four 4-lane FMA accumulators, fixed combine order.
[[nodiscard]] double dot_avx2(const double* a, const double* b, std::size_t n);

// ---------------------------------------------------------------------------
// Blocked forward substitution: solve L X = B in place for the m columns of
// x (n x m row-major), with L lower-triangular n x n row-major.

void solve_lower_multi_inplace(const double* l, std::size_t n, double* x,
                               std::size_t m);
void solve_lower_multi_inplace_scalar(const double* l, std::size_t n,
                                      double* x, std::size_t m);
void solve_lower_multi_inplace_avx2(const double* l, std::size_t n, double* x,
                                    std::size_t m);

// ---------------------------------------------------------------------------
// acc[j] += sum_i v(i, j)^2 over the `rows` x `m` row-major matrix v — the
// explained-variance accumulation of GaussianProcess::predict_block.

void sumsq_rows_accumulate(const double* v, std::size_t rows, std::size_t m,
                           double* acc);
void sumsq_rows_accumulate_scalar(const double* v, std::size_t rows,
                                  std::size_t m, double* acc);
void sumsq_rows_accumulate_avx2(const double* v, std::size_t rows,
                                std::size_t m, double* acc);

// ---------------------------------------------------------------------------
// Stationary-kernel row evaluation (Kernel::gram rows / Kernel::cross):
//   out[j] = signal_variance * corr(r_j),
//   r_j = sqrt(sum_d ((x[d] - pts[j][d]) / lengthscales[d])^2).
// The AVX2 path evaluates four points per iteration with a polynomial
// exp(-s) (magic-number rounding, two-part ln2 reduction, degree-11 Taylor
// core — the fast_normal recipe), accurate to a few ulp of libm; inputs
// past the libm-denormal range flush to the same 0.0.  Remainder points are
// padded into a full vector, so out[j] depends only on x and pts[j] — never
// on j's position in the batch — which keeps a Kernel::cross row bit-equal
// to one-point rows of the same pairs at every dispatch level.

enum class Corr : int { kMatern52 = 0, kMatern32 = 1, kRbf = 2 };

void corr_row(Corr family, const double* x, const double* const* pts,
              std::size_t count, const double* lengthscales, std::size_t dim,
              double signal_variance, double* out);
void corr_row_scalar(Corr family, const double* x, const double* const* pts,
                     std::size_t count, const double* lengthscales,
                     std::size_t dim, double signal_variance, double* out);
void corr_row_avx2(Corr family, const double* x, const double* const* pts,
                   std::size_t count, const double* lengthscales,
                   std::size_t dim, double signal_variance, double* out);

// ---------------------------------------------------------------------------
// Batched standard-normal pdf/cdf (the common/fast_normal polynomial).
// Elementwise: AVX2 is bit-identical to scalar.

void normal_pdf_cdf_batch(const double* t, std::size_t count, double* pdf,
                          double* cdf);
void normal_pdf_cdf_batch_scalar(const double* t, std::size_t count,
                                 double* pdf, double* cdf);
void normal_pdf_cdf_batch_avx2(const double* t, std::size_t count, double* pdf,
                               double* cdf);

// ---------------------------------------------------------------------------
// EHVI strip precomputation for one candidate against a compiled front of
// m = n_front + 1 strips (bo::CompiledFront::ehvi_block fast path):
//   width[0]  = psi(v_0, v_0)            (strip with u = -inf)
//   width[k]  = (v_k - v_{k-1}) * cdf1[k-1] + (psi_vv_k - psi_vu_k)
//   height[k] = sigma2 * pdf2[k] + (ceiling2[k] - mu2) * cdf2[k]
// with psi(a, b) = sigma * pdf(t_b) + (a - mu) * cdf(t_b) evaluated from
// the pre-tabulated pdf/cdf.  Elementwise in k: AVX2 is bit-identical to
// scalar; the caller keeps the serial k-ordered accumulation (and its
// width > 0 guard), so totals match the pre-SIMD loop bit-for-bit.

void ehvi_strips(const double* bound1, const double* ceiling2, std::size_t m,
                 double mu1, double sigma1, double mu2, double sigma2,
                 const double* pdf1, const double* cdf1, const double* pdf2,
                 const double* cdf2, double* width, double* height);
void ehvi_strips_scalar(const double* bound1, const double* ceiling2,
                        std::size_t m, double mu1, double sigma1, double mu2,
                        double sigma2, const double* pdf1, const double* cdf1,
                        const double* pdf2, const double* cdf2, double* width,
                        double* height);
void ehvi_strips_avx2(const double* bound1, const double* ceiling2,
                      std::size_t m, double mu1, double sigma1, double mu2,
                      double sigma2, const double* pdf1, const double* cdf1,
                      const double* pdf2, const double* cdf2, double* width,
                      double* height);

}  // namespace bofl::linalg::simd
