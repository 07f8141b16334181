// Dispatching entry points: one branch on the process-wide level, then a
// tail call into the selected implementation.  Hot per-factorization loops
// that cannot afford even this branch hoist the level themselves (see
// linalg/cholesky.cpp).
#include "linalg/simd/dispatch.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::linalg::simd {

namespace {
inline bool use_avx2() { return active_level() == Level::kAvx2; }
}  // namespace

double dot_serial(const double* a, const double* b, std::size_t n) {
  return use_avx2() ? dot_avx2(a, b, n) : dot_serial_scalar(a, b, n);
}

void solve_lower_multi_inplace(const double* l, std::size_t n, double* x,
                               std::size_t m) {
  if (use_avx2()) {
    solve_lower_multi_inplace_avx2(l, n, x, m);
  } else {
    solve_lower_multi_inplace_scalar(l, n, x, m);
  }
}

void sumsq_rows_accumulate(const double* v, std::size_t rows, std::size_t m,
                           double* acc) {
  if (use_avx2()) {
    sumsq_rows_accumulate_avx2(v, rows, m, acc);
  } else {
    sumsq_rows_accumulate_scalar(v, rows, m, acc);
  }
}

void corr_row(Corr family, const double* x, const double* const* pts,
              std::size_t count, const double* lengthscales, std::size_t dim,
              double signal_variance, double* out) {
  if (use_avx2()) {
    corr_row_avx2(family, x, pts, count, lengthscales, dim, signal_variance,
                  out);
  } else {
    corr_row_scalar(family, x, pts, count, lengthscales, dim, signal_variance,
                    out);
  }
}

void normal_pdf_cdf_batch(const double* t, std::size_t count, double* pdf,
                          double* cdf) {
  if (use_avx2()) {
    normal_pdf_cdf_batch_avx2(t, count, pdf, cdf);
  } else {
    normal_pdf_cdf_batch_scalar(t, count, pdf, cdf);
  }
}

void ehvi_strips(const double* bound1, const double* ceiling2, std::size_t m,
                 double mu1, double sigma1, double mu2, double sigma2,
                 const double* pdf1, const double* cdf1, const double* pdf2,
                 const double* cdf2, double* width, double* height) {
  if (use_avx2()) {
    ehvi_strips_avx2(bound1, ceiling2, m, mu1, sigma1, mu2, sigma2, pdf1, cdf1,
                     pdf2, cdf2, width, height);
  } else {
    ehvi_strips_scalar(bound1, ceiling2, m, mu1, sigma1, mu2, sigma2, pdf1,
                       cdf1, pdf2, cdf2, width, height);
  }
}

}  // namespace bofl::linalg::simd
