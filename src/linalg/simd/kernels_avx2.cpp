// AVX2 + FMA kernel implementations (4 x f64 lanes).
//
// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off on
// x86-64 (see CMakeLists.txt); everywhere else it degrades to stubs and
// `avx2_compiled()` reports false, so the dispatcher never routes here.
//
// Two ISA disciplines coexist in this file — which one a kernel uses is
// part of its contract (kernels.hpp):
//   * Reduction kernels (dot, GEMM, triangular solve, sum-of-squares,
//     correlation rows) use _mm256_fmadd_pd freely: they are
//     tolerance-pinned against the scalar reference, and their fixed lane
//     and combine order keeps them bit-deterministic per level.
//   * Elementwise kernels (normal_pdf_cdf_batch, ehvi_strips) must be
//     bit-identical to scalar, so their vector bodies use only
//     mul/add/sub/div plus exact compare/blend emulation of the scalar
//     branches — never an FMA, because the scalar reference is compiled
//     without contraction.  -ffp-contract=off guarantees the compiler does
//     not sneak contractions into this TU's scalar epilogues either.
#include "linalg/simd/dispatch.hpp"
#include "linalg/simd/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace bofl::linalg::simd {

bool avx2_compiled() { return true; }

namespace {

/// Lane masks for 1..3 remaining elements (maskload/maskstore take the
/// sign bit of each 64-bit lane).
inline __m256i tail_mask(std::size_t rem) {
  alignas(32) static const std::int64_t kMasks[4][4] = {
      {0, 0, 0, 0},
      {-1, 0, 0, 0},
      {-1, -1, 0, 0},
      {-1, -1, -1, 0},
  };
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kMasks[rem]));
}

/// Fixed-order horizontal sum: ((lane0 + lane1) + (lane2 + lane3)).
inline double hsum(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd();
  __m256d s3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), s0);
    s1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4),
                         s1);
    s2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8),
                         s2);
    s3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                         _mm256_loadu_pd(b + i + 12), s3);
  }
  for (; i + 4 <= n; i += 4) {
    s0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), s0);
  }
  const double vec = hsum(_mm256_add_pd(_mm256_add_pd(s0, s1),
                                        _mm256_add_pd(s2, s3)));
  double tail = 0.0;
  for (; i < n; ++i) {
    tail = std::fma(a[i], b[i], tail);
  }
  return vec + tail;
}

void solve_lower_multi_inplace_avx2(const double* l, std::size_t n, double* x,
                                    std::size_t m) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double* xi = x + i * m;
    std::size_t j = 0;
    // Four eliminated rows per pass: xi stays in registers across the four
    // fnmadds, quartering its load/store traffic.  The four updates are
    // applied in ascending j order, matching the scalar elimination order.
    for (; j + 4 <= i; j += 4) {
      const __m256d l0 = _mm256_broadcast_sd(li + j);
      const __m256d l1 = _mm256_broadcast_sd(li + j + 1);
      const __m256d l2 = _mm256_broadcast_sd(li + j + 2);
      const __m256d l3 = _mm256_broadcast_sd(li + j + 3);
      const double* x0 = x + j * m;
      const double* x1 = x0 + m;
      const double* x2 = x1 + m;
      const double* x3 = x2 + m;
      std::size_t c = 0;
      for (; c + 4 <= m; c += 4) {
        __m256d v = _mm256_loadu_pd(xi + c);
        v = _mm256_fnmadd_pd(l0, _mm256_loadu_pd(x0 + c), v);
        v = _mm256_fnmadd_pd(l1, _mm256_loadu_pd(x1 + c), v);
        v = _mm256_fnmadd_pd(l2, _mm256_loadu_pd(x2 + c), v);
        v = _mm256_fnmadd_pd(l3, _mm256_loadu_pd(x3 + c), v);
        _mm256_storeu_pd(xi + c, v);
      }
      for (; c < m; ++c) {
        double v = xi[c];
        v = std::fma(-li[j], x0[c], v);
        v = std::fma(-li[j + 1], x1[c], v);
        v = std::fma(-li[j + 2], x2[c], v);
        v = std::fma(-li[j + 3], x3[c], v);
        xi[c] = v;
      }
    }
    for (; j < i; ++j) {
      const __m256d lj = _mm256_broadcast_sd(li + j);
      const double* xj = x + j * m;
      std::size_t c = 0;
      for (; c + 4 <= m; c += 4) {
        _mm256_storeu_pd(
            xi + c,
            _mm256_fnmadd_pd(lj, _mm256_loadu_pd(xj + c),
                             _mm256_loadu_pd(xi + c)));
      }
      for (; c < m; ++c) {
        xi[c] = std::fma(-li[j], xj[c], xi[c]);
      }
    }
    const double inv = 1.0 / li[i];
    const __m256d vinv = _mm256_broadcast_sd(&inv);
    std::size_t c = 0;
    for (; c + 4 <= m; c += 4) {
      _mm256_storeu_pd(xi + c, _mm256_mul_pd(_mm256_loadu_pd(xi + c), vinv));
    }
    for (; c < m; ++c) {
      xi[c] *= inv;
    }
  }
}

void sumsq_rows_accumulate_avx2(const double* v, std::size_t rows,
                                std::size_t m, double* acc) {
  std::size_t i = 0;
  // Four rows per pass (acc kept in registers, rows applied in ascending
  // order — the same per-element accumulation order as the scalar loop).
  for (; i + 4 <= rows; i += 4) {
    const double* v0 = v + i * m;
    const double* v1 = v0 + m;
    const double* v2 = v1 + m;
    const double* v3 = v2 + m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      __m256d s = _mm256_loadu_pd(acc + j);
      const __m256d a0 = _mm256_loadu_pd(v0 + j);
      const __m256d a1 = _mm256_loadu_pd(v1 + j);
      const __m256d a2 = _mm256_loadu_pd(v2 + j);
      const __m256d a3 = _mm256_loadu_pd(v3 + j);
      s = _mm256_fmadd_pd(a0, a0, s);
      s = _mm256_fmadd_pd(a1, a1, s);
      s = _mm256_fmadd_pd(a2, a2, s);
      s = _mm256_fmadd_pd(a3, a3, s);
      _mm256_storeu_pd(acc + j, s);
    }
    for (; j < m; ++j) {
      double s = acc[j];
      s = std::fma(v0[j], v0[j], s);
      s = std::fma(v1[j], v1[j], s);
      s = std::fma(v2[j], v2[j], s);
      s = std::fma(v3[j], v3[j], s);
      acc[j] = s;
    }
  }
  for (; i < rows; ++i) {
    const double* vi = v + i * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const __m256d a = _mm256_loadu_pd(vi + j);
      _mm256_storeu_pd(acc + j,
                       _mm256_fmadd_pd(a, a, _mm256_loadu_pd(acc + j)));
    }
    for (; j < m; ++j) {
      acc[j] = std::fma(vi[j], vi[j], acc[j]);
    }
  }
}

namespace {

// exp(x) for x <= 0, accurate to a few ulp: magic-number rounding, two-part
// ln2 reduction, degree-11 Taylor core (the fast_normal recipe, with FMA —
// this helper serves tolerance-pinned kernels only).  Inputs below -708
// (where the 2^k scaling would need denormals) flush to +0.0; libm returns
// a denormal there, an absolute difference below 2.3e-308.  -inf maps to
// +0.0 like libm; NaN propagates.
inline __m256d exp_nonpos_pd(__m256d x) {
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634);
  const __m256d kLn2Hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d kShift = _mm256_set1_pd(6755399441055744.0);  // 1.5 * 2^52
  __m256d kd = _mm256_fmadd_pd(x, kLog2e, kShift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, kShift);
  __m256d r = _mm256_fnmadd_pd(kd, kLn2Hi, x);
  r = _mm256_fnmadd_pd(kd, kLn2Lo, r);
  __m256d q = _mm256_set1_pd(1.0 / 39916800.0);
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 3628800.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 362880.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 40320.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 5040.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 720.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 120.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 24.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0 / 6.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(0.5));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0));
  q = _mm256_fmadd_pd(q, r, _mm256_set1_pd(1.0));
  // 2^k from the rounded exponent bits; only the low 12 bits of ki + 1023
  // survive the << 52, so the magic-shift tag bits drop out by themselves.
  const __m256i sbits =
      _mm256_slli_epi64(_mm256_add_epi64(ki, _mm256_set1_epi64x(1023)), 52);
  const __m256d e = _mm256_mul_pd(q, _mm256_castsi256_pd(sbits));
  // Flush the sub-2^-1022 range (and -inf) to +0.0; NaN compares false on
  // both sides and keeps its propagated payload.
  const __m256d flush =
      _mm256_cmp_pd(x, _mm256_set1_pd(-708.0), _CMP_LT_OQ);
  return _mm256_andnot_pd(flush, e);
}

}  // namespace

void corr_row_avx2(Corr family, const double* x, const double* const* pts,
                   std::size_t count, const double* lengthscales,
                   std::size_t dim, double signal_variance, double* out) {
  const __m256d sv = _mm256_set1_pd(signal_variance);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  while (j < count) {
    // Remainder points are padded with the last point so every element
    // takes the identical vector code path: corr_row results are
    // position-independent, which keeps a Kernel::cross row bit-equal to
    // one-point rows of the same pairs at every dispatch level.
    const std::size_t rem = count - j;
    const double* p0 = pts[j];
    const double* p1 = pts[rem > 1 ? j + 1 : j];
    const double* p2 = pts[rem > 2 ? j + 2 : j];
    const double* p3 = pts[rem > 3 ? j + 3 : j];
    __m256d r2 = _mm256_setzero_pd();
    for (std::size_t d = 0; d < dim; ++d) {
      const __m256d xd = _mm256_broadcast_sd(x + d);
      const __m256d ls = _mm256_broadcast_sd(lengthscales + d);
      const __m256d pv = _mm256_set_pd(p3[d], p2[d], p1[d], p0[d]);
      const __m256d q = _mm256_div_pd(_mm256_sub_pd(xd, pv), ls);
      r2 = _mm256_fmadd_pd(q, q, r2);
    }
    const __m256d r = _mm256_sqrt_pd(r2);
    __m256d k;
    switch (family) {
      case Corr::kMatern52: {
        const __m256d s =
            _mm256_mul_pd(_mm256_set1_pd(2.23606797749978969641), r);
        const __m256d poly = _mm256_add_pd(
            one, _mm256_add_pd(
                     s, _mm256_div_pd(_mm256_mul_pd(s, s),
                                      _mm256_set1_pd(3.0))));
        k = _mm256_mul_pd(poly, exp_nonpos_pd(
                                    _mm256_sub_pd(_mm256_setzero_pd(), s)));
        break;
      }
      case Corr::kMatern32: {
        const __m256d s =
            _mm256_mul_pd(_mm256_set1_pd(1.73205080756887729353), r);
        k = _mm256_mul_pd(
            _mm256_add_pd(one, s),
            exp_nonpos_pd(_mm256_sub_pd(_mm256_setzero_pd(), s)));
        break;
      }
      case Corr::kRbf:
      default: {
        const __m256d arg =
            _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(-0.5), r), r);
        k = exp_nonpos_pd(arg);
        break;
      }
    }
    const __m256d kv = _mm256_mul_pd(sv, k);
    if (rem >= 4) {
      _mm256_storeu_pd(out + j, kv);
    } else {
      _mm256_maskstore_pd(out + j, tail_mask(rem), kv);
    }
    j += rem < 4 ? rem : 4;
  }
}

namespace {

/// std::min(z, c) with scalar ternary semantics: (c < z) ? c : z, NaN z
/// preserved (ordered compare is false on NaN, keeping z).
inline __m256d min_scalar_semantics(__m256d z, __m256d c) {
  return _mm256_blendv_pd(z, c, _mm256_cmp_pd(c, z, _CMP_LT_OQ));
}

}  // namespace

void normal_pdf_cdf_batch_avx2(const double* t, std::size_t count, double* pdf,
                               double* cdf) {
  // The scalar polynomial evaluated four lanes at a time with mul/add only
  // (never FMA): every operation mirrors one scalar-source operation in
  // the same order, so outputs are bit-identical to the scalar kernel —
  // asserted by the SIMD differential tests.
  const __m256d kAbsMask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d kClamp = _mm256_set1_pd(37.7);
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634);
  const __m256d kLn2Hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d kLn2Lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d kShift = _mm256_set1_pd(6755399441055744.0);
  const __m256d kHalfNeg = _mm256_set1_pd(-0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d kInvSqrt2PiV = _mm256_set1_pd(0.3989422804014327);
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d ti = _mm256_loadu_pd(t + i);
    __m256d z = _mm256_and_pd(ti, kAbsMask);
    z = min_scalar_semantics(z, kClamp);
    const __m256d x = _mm256_mul_pd(_mm256_mul_pd(kHalfNeg, z), z);
    __m256d kd = _mm256_add_pd(_mm256_mul_pd(x, kLog2e), kShift);
    const __m256i ki = _mm256_castpd_si256(kd);
    kd = _mm256_sub_pd(kd, kShift);
    const __m256d r = _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(kd, kLn2Hi)),
                                    _mm256_mul_pd(kd, kLn2Lo));
    __m256d q = _mm256_set1_pd(1.0 / 39916800.0);
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 3628800.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 362880.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 40320.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 5040.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 720.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 120.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 24.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(1.0 / 6.0));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(0.5));
    q = _mm256_add_pd(_mm256_mul_pd(q, r), one);
    q = _mm256_add_pd(_mm256_mul_pd(q, r), one);
    // (ki + 1023) << 52: only the low 12 bits of the sum survive, so the
    // scalar path's explicit 32-bit sign extension is unnecessary here.
    const __m256i sbits =
        _mm256_slli_epi64(_mm256_add_epi64(ki, _mm256_set1_epi64x(1023)), 52);
    const __m256d e = _mm256_mul_pd(q, _mm256_castsi256_pd(sbits));
    __m256d p = _mm256_mul_pd(kInvSqrt2PiV, e);
    __m256d num = _mm256_set1_pd(3.52624965998911e-02);
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(0.700383064443688));
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(6.37396220353165));
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(33.912866078383));
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(112.079291497871));
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(221.213596169931));
    num = _mm256_add_pd(_mm256_mul_pd(num, z), _mm256_set1_pd(220.206867912376));
    __m256d den = _mm256_set1_pd(8.83883476483184e-02);
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(1.75566716318264));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(16.064177579207));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(86.7807322029461));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(296.564248779674));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(637.333633378831));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(793.826512519948));
    den = _mm256_add_pd(_mm256_mul_pd(den, z), _mm256_set1_pd(440.413735824752));
    const __m256d c_main = _mm256_div_pd(_mm256_mul_pd(e, num), den);
    const __m256d inv = _mm256_div_pd(one, z);
    const __m256d inv2 = _mm256_mul_pd(inv, inv);
    __m256d tail = _mm256_sub_pd(
        one, _mm256_mul_pd(_mm256_set1_pd(9.0), inv2));
    tail = _mm256_sub_pd(
        one, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(7.0), inv2), tail));
    tail = _mm256_sub_pd(
        one, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(5.0), inv2), tail));
    tail = _mm256_sub_pd(
        one, _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(3.0), inv2), tail));
    tail = _mm256_sub_pd(one, _mm256_mul_pd(inv2, tail));
    const __m256d c_tail = _mm256_mul_pd(_mm256_mul_pd(p, inv), tail);
    // z < seam ? c_main : c_tail (NaN z picks c_tail, like the scalar ?:).
    const __m256d seam_mask =
        _mm256_cmp_pd(z, _mm256_set1_pd(7.07106781186547), _CMP_LT_OQ);
    __m256d c = _mm256_blendv_pd(c_tail, c_main, seam_mask);
    const __m256d flush = _mm256_cmp_pd(z, _mm256_set1_pd(37.6), _CMP_GT_OQ);
    c = _mm256_andnot_pd(flush, c);
    p = _mm256_andnot_pd(flush, p);
    _mm256_storeu_pd(pdf + i, p);
    const __m256d neg_mask =
        _mm256_cmp_pd(ti, _mm256_setzero_pd(), _CMP_LE_OQ);
    _mm256_storeu_pd(cdf + i,
                     _mm256_blendv_pd(_mm256_sub_pd(one, c), c, neg_mask));
  }
  if (i < count) {  // remainder: scalar kernel (bit-identical by contract)
    normal_pdf_cdf_batch_scalar(t + i, count - i, pdf + i, cdf + i);
  }
}

void ehvi_strips_avx2(const double* bound1, const double* ceiling2,
                      std::size_t m, double mu1, double sigma1, double mu2,
                      double sigma2, const double* pdf1, const double* cdf1,
                      const double* pdf2, const double* cdf2, double* width,
                      double* height) {
  // Elementwise in k with mul/add/sub only — bit-identical to the scalar
  // strip expressions (the k and k-1 operands come from unaligned loads).
  const __m256d s1 = _mm256_set1_pd(sigma1);
  const __m256d s2 = _mm256_set1_pd(sigma2);
  const __m256d m1 = _mm256_set1_pd(mu1);
  const __m256d m2 = _mm256_set1_pd(mu2);
  width[0] = sigma1 * pdf1[0] + (bound1[0] - mu1) * cdf1[0];
  std::size_t k = 1;
  for (; k + 4 <= m; k += 4) {
    const __m256d vk = _mm256_loadu_pd(bound1 + k);
    const __m256d uk = _mm256_loadu_pd(bound1 + k - 1);
    const __m256d pk = _mm256_loadu_pd(pdf1 + k);
    const __m256d pk1 = _mm256_loadu_pd(pdf1 + k - 1);
    const __m256d ck = _mm256_loadu_pd(cdf1 + k);
    const __m256d ck1 = _mm256_loadu_pd(cdf1 + k - 1);
    const __m256d vmu = _mm256_sub_pd(vk, m1);
    const __m256d psi_vv =
        _mm256_add_pd(_mm256_mul_pd(s1, pk), _mm256_mul_pd(vmu, ck));
    const __m256d psi_vu =
        _mm256_add_pd(_mm256_mul_pd(s1, pk1), _mm256_mul_pd(vmu, ck1));
    const __m256d w = _mm256_add_pd(
        _mm256_mul_pd(_mm256_sub_pd(vk, uk), ck1),
        _mm256_sub_pd(psi_vv, psi_vu));
    _mm256_storeu_pd(width + k, w);
  }
  for (; k < m; ++k) {
    const double u = bound1[k - 1];
    const double v = bound1[k];
    const double psi_vv = sigma1 * pdf1[k] + (v - mu1) * cdf1[k];
    const double psi_vu = sigma1 * pdf1[k - 1] + (v - mu1) * cdf1[k - 1];
    width[k] = (v - u) * cdf1[k - 1] + (psi_vv - psi_vu);
  }
  k = 0;
  for (; k + 4 <= m; k += 4) {
    const __m256d h = _mm256_add_pd(
        _mm256_mul_pd(s2, _mm256_loadu_pd(pdf2 + k)),
        _mm256_mul_pd(_mm256_sub_pd(_mm256_loadu_pd(ceiling2 + k), m2),
                      _mm256_loadu_pd(cdf2 + k)));
    _mm256_storeu_pd(height + k, h);
  }
  for (; k < m; ++k) {
    height[k] = sigma2 * pdf2[k] + (ceiling2[k] - mu2) * cdf2[k];
  }
}

}  // namespace bofl::linalg::simd

#else  // !(__AVX2__ && __FMA__): stubs — the dispatcher never selects kAvx2.

#include "common/error.hpp"

namespace bofl::linalg::simd {

bool avx2_compiled() { return false; }

namespace {
[[noreturn]] void unreachable_stub() {
  BOFL_ASSERT(false, "AVX2 kernel called in a build without AVX2 support");
}
}  // namespace

double dot_avx2(const double*, const double*, std::size_t) {
  unreachable_stub();
}
void solve_lower_multi_inplace_avx2(const double*, std::size_t, double*,
                                    std::size_t) {
  unreachable_stub();
}
void sumsq_rows_accumulate_avx2(const double*, std::size_t, std::size_t,
                                double*) {
  unreachable_stub();
}
void corr_row_avx2(Corr, const double*, const double* const*, std::size_t,
                   const double*, std::size_t, double, double*) {
  unreachable_stub();
}
void normal_pdf_cdf_batch_avx2(const double*, std::size_t, double*, double*) {
  unreachable_stub();
}
void ehvi_strips_avx2(const double*, const double*, std::size_t, double,
                      double, double, double, const double*, const double*,
                      const double*, const double*, double*, double*) {
  unreachable_stub();
}

}  // namespace bofl::linalg::simd

#endif
