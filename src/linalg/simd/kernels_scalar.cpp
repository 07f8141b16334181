// Scalar reference kernels: the exact pre-SIMD implementations, moved here
// from linalg/matrix.cpp, linalg/cholesky.cpp, gp/kernel.cpp,
// gp/gaussian_process.cpp, bo/ehvi.cpp and common/fast_normal.cpp.  The
// bodies are kept verbatim (same expression trees, same accumulator
// splits) so that Level::kScalar reproduces the repo's historical bits —
// this file is the escape hatch `BOFL_SIMD=scalar` runs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "linalg/simd/kernels.hpp"

namespace bofl::linalg::simd {

double dot_serial_scalar(const double* a, const double* b, std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

// Four-way accumulator split (the Cholesky layer's dot_n): breaks the
// serial FP dependence chain so the compiler can keep four accumulators in
// flight; the combine order is part of the bit contract.
double dot_blocked_scalar(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += a[i] * b[i];
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}

// Forward substitution vectorized across the m right-hand sides: the inner
// loop is a unit-stride axpy over row i, so one pass through L serves the
// whole block instead of m independent strided solves.
void solve_lower_multi_inplace_scalar(const double* l, std::size_t n,
                                      double* x, std::size_t m) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double* xi = x + i * m;
    for (std::size_t j = 0; j < i; ++j) {
      const double lij = li[j];
      const double* xj = x + j * m;
      for (std::size_t c = 0; c < m; ++c) {
        xi[c] -= lij * xj[c];
      }
    }
    const double inv = 1.0 / li[i];
    for (std::size_t c = 0; c < m; ++c) {
      xi[c] *= inv;
    }
  }
}

void sumsq_rows_accumulate_scalar(const double* v, std::size_t rows,
                                  std::size_t m, double* acc) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* vi = v + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      acc[j] += vi[j] * vi[j];
    }
  }
}

namespace {

/// The correlation switch of gp::Kernel::correlation, verbatim.
inline double correlation_scalar(Corr family, double r) {
  switch (family) {
    case Corr::kMatern52: {
      const double s = std::sqrt(5.0) * r;
      return (1.0 + s + s * s / 3.0) * std::exp(-s);
    }
    case Corr::kMatern32: {
      const double s = std::sqrt(3.0) * r;
      return (1.0 + s) * std::exp(-s);
    }
    case Corr::kRbf:
      return std::exp(-0.5 * r * r);
  }
  return 0.0;  // unreachable; the dispatching caller validated the family
}

}  // namespace

void corr_row_scalar(Corr family, const double* x, const double* const* pts,
                     std::size_t count, const double* lengthscales,
                     std::size_t dim, double signal_variance, double* out) {
  for (std::size_t j = 0; j < count; ++j) {
    const double* p = pts[j];
    double r2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = (x[i] - p[i]) / lengthscales[i];
      r2 += d * d;
    }
    out[j] = signal_variance * correlation_scalar(family, std::sqrt(r2));
  }
}

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
}  // namespace

void normal_pdf_cdf_batch_scalar(const double* t, std::size_t count,
                                 double* pdf, double* cdf) {
  const double kLog2e = 1.4426950408889634;
  // exp(x) = 2^k * exp(r), r = x - k*ln2 split into a high/low pair so the
  // reduction stays exact to the last bit of the degree-11 Taylor core.
  const double kLn2Hi = 6.93147180369123816490e-01;
  const double kLn2Lo = 1.90821492927058770002e-10;
  const double kShift = 6755399441055744.0;  // 1.5 * 2^52: round-to-int trick
  for (std::size_t i = 0; i < count; ++i) {
    const double ti = t[i];
    double z = std::fabs(ti);
    // Keep -z^2/2 inside the scaled-exponent domain; everything past the
    // flush threshold below is forced to exact zero anyway.
    z = std::min(z, 37.7);
    const double x = -0.5 * z * z;
    double kd = x * kLog2e + kShift;
    std::int64_t ki;
    std::memcpy(&ki, &kd, 8);
    ki = (ki << 32) >> 32;  // low mantissa bits hold round(x * log2 e)
    kd -= kShift;
    const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
    double q = 1.0 / 39916800.0;
    q = q * r + 1.0 / 3628800.0;
    q = q * r + 1.0 / 362880.0;
    q = q * r + 1.0 / 40320.0;
    q = q * r + 1.0 / 5040.0;
    q = q * r + 1.0 / 720.0;
    q = q * r + 1.0 / 120.0;
    q = q * r + 1.0 / 24.0;
    q = q * r + 1.0 / 6.0;
    q = q * r + 0.5;
    q = q * r + 1.0;
    q = q * r + 1.0;
    std::int64_t sbits = (ki + 1023) << 52;
    double scale;
    std::memcpy(&scale, &sbits, 8);
    const double e = q * scale;  // exp(-z^2/2)
    double p = kInvSqrt2Pi * e;
    // Hart 5666 / West(2005) rational for the complementary cdf, |z| < 5/√2.
    double num = 3.52624965998911e-02;
    num = num * z + 0.700383064443688;
    num = num * z + 6.37396220353165;
    num = num * z + 33.912866078383;
    num = num * z + 112.079291497871;
    num = num * z + 221.213596169931;
    num = num * z + 220.206867912376;
    double den = 8.83883476483184e-02;
    den = den * z + 1.75566716318264;
    den = den * z + 16.064177579207;
    den = den * z + 86.7807322029461;
    den = den * z + 296.564248779674;
    den = den * z + 637.333633378831;
    den = den * z + 793.826512519948;
    den = den * z + 440.413735824752;
    const double c_main = e * num / den;
    // Far tail: five-term asymptotic Mills-ratio series, pdf(z)/z * (1 - ...).
    const double inv = 1.0 / z;
    const double inv2 = inv * inv;
    const double c_tail =
        p * inv *
        (1.0 -
         inv2 * (1.0 - 3.0 * inv2 *
                           (1.0 - 5.0 * inv2 *
                                      (1.0 - 7.0 * inv2 * (1.0 - 9.0 * inv2)))));
    double c = z < 7.07106781186547 ? c_main : c_tail;
    // Flush to the exact zeros libm would produce, preserving exact-zero
    // acquisition ties (and masking the clamped-exp garbage past z = 37.7).
    const bool flush = z > 37.6;
    c = flush ? 0.0 : c;
    p = flush ? 0.0 : p;
    pdf[i] = p;
    cdf[i] = ti <= 0.0 ? c : 1.0 - c;
  }
}

void ehvi_strips_scalar(const double* bound1, const double* ceiling2,
                        std::size_t m, double mu1, double sigma1, double mu2,
                        double sigma2, const double* pdf1, const double* cdf1,
                        const double* pdf2, const double* cdf2, double* width,
                        double* height) {
  // psi_ei(v, v, mu, sigma) = sigma * pdf(t_v) + (v - mu) * cdf(t_v); the
  // expressions below are the pre-SIMD ehvi_block combine loop verbatim,
  // with the serial accumulation left to the caller.
  width[0] = sigma1 * pdf1[0] + (bound1[0] - mu1) * cdf1[0];
  for (std::size_t k = 1; k < m; ++k) {
    const double u = bound1[k - 1];
    const double v = bound1[k];
    const double psi_vv = sigma1 * pdf1[k] + (v - mu1) * cdf1[k];
    const double psi_vu = sigma1 * pdf1[k - 1] + (v - mu1) * cdf1[k - 1];
    width[k] = (v - u) * cdf1[k - 1] + (psi_vv - psi_vu);
  }
  for (std::size_t k = 0; k < m; ++k) {
    height[k] = sigma2 * pdf2[k] + (ceiling2[k] - mu2) * cdf2[k];
  }
}

}  // namespace bofl::linalg::simd
