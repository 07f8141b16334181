// Differential tests for the SIMD kernel layer: every vectorized kernel is
// compared against its scalar reference — bitwise for the elementwise
// kernels (normal_pdf_cdf_batch, ehvi_strips, corr_row position
// independence), tolerance-pinned for the FMA reduction kernels (dot, GEMM,
// triangular solve, sum-of-squares, correlation rows) — across randomized
// shapes including every vector-remainder class, plus NaN/inf propagation
// and the dispatch override contract.
//
// The `_avx2` variants are called directly (no global dispatch flips), so
// these tests cannot perturb the level other tests run under; AVX2 cases
// GTEST_SKIP on machines/builds without the AVX2 path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "bo/ehvi.hpp"
#include "common/rng.hpp"
#include "linalg/simd/dispatch.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::linalg::simd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool avx2_available() { return avx2_compiled() && cpu_supports_avx2(); }

#define SKIP_WITHOUT_AVX2()                                      \
  do {                                                           \
    if (!avx2_available()) {                                     \
      GTEST_SKIP() << "AVX2 kernels not available on this host"; \
    }                                                            \
  } while (false)

std::vector<double> random_vector(Rng& rng, std::size_t n, double lo = -2.0,
                                  double hi = 2.0) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(lo, hi);
  }
  return v;
}

/// Same bits, including NaN payloads and zero signs.
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, 8);
  std::memcpy(&bb, &b, 8);
  if (ba == bb) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << ba << ") != " << b << " (0x" << bb
         << ")";
}

/// Reduction-kernel comparison: NaNs must agree; finite values must agree
/// to a relative tolerance (FMA vs split rounding), with an absolute floor
/// for results near zero.
void expect_close(double avx2, double scalar, double scale = 1.0) {
  if (std::isnan(scalar)) {
    EXPECT_TRUE(std::isnan(avx2)) << "scalar NaN but avx2 " << avx2;
    return;
  }
  if (std::isinf(scalar)) {
    EXPECT_EQ(avx2, scalar);
    return;
  }
  const double tol = 1e-12 * std::max(scale, std::abs(scalar)) + 1e-300;
  EXPECT_NEAR(avx2, scalar, tol);
}

// ---------------------------------------------------------------------------
// Dot products.

TEST(SimdDot, Avx2MatchesScalarAcrossLengthsAndRemainders) {
  SKIP_WITHOUT_AVX2();
  Rng rng(1);
  for (std::size_t n = 0; n <= 70; ++n) {  // covers %16, %4 and tail classes
    const auto a = random_vector(rng, n);
    const auto b = random_vector(rng, n);
    const double v = dot_avx2(a.data(), b.data(), n);
    expect_close(v, dot_serial_scalar(a.data(), b.data(), n),
                 static_cast<double>(n));
    expect_close(v, dot_blocked_scalar(a.data(), b.data(), n),
                 static_cast<double>(n));
  }
}

TEST(SimdDot, ScalarVariantsKeepHistoricalAccumulationOrders) {
  // The two scalar semantics are intentionally different expression trees;
  // on ill-conditioned data they may differ in the last bits, but both must
  // agree with a long-double reference to fp tolerance.
  Rng rng(2);
  const std::size_t n = 37;
  const auto a = random_vector(rng, n, -1e3, 1e3);
  const auto b = random_vector(rng, n, -1e3, 1e3);
  long double ref = 0.0L;
  for (std::size_t i = 0; i < n; ++i) {
    ref += static_cast<long double>(a[i]) * b[i];
  }
  EXPECT_NEAR(dot_serial_scalar(a.data(), b.data(), n),
              static_cast<double>(ref), 1e-6);
  EXPECT_NEAR(dot_blocked_scalar(a.data(), b.data(), n),
              static_cast<double>(ref), 1e-6);
}

TEST(SimdDot, NanAndInfPropagate) {
  SKIP_WITHOUT_AVX2();
  std::vector<double> a(9, 1.0);
  std::vector<double> b(9, 2.0);
  a[5] = kNan;
  EXPECT_TRUE(std::isnan(dot_avx2(a.data(), b.data(), 9)));
  a[5] = kInf;
  EXPECT_EQ(dot_avx2(a.data(), b.data(), 9), kInf);
}

// ---------------------------------------------------------------------------
// Blocked forward substitution.

TEST(SimdSolveLowerMulti, Avx2MatchesScalarAcrossShapes) {
  SKIP_WITHOUT_AVX2();
  Rng rng(5);
  const std::size_t ns[] = {1, 2, 3, 4, 5, 9, 30, 33};
  const std::size_t ms[] = {1, 2, 3, 4, 6, 8, 17, 64, 70};
  for (const std::size_t n : ns) {
    for (const std::size_t m : ms) {
      // Diagonally dominant lower-triangular L: well-conditioned solves.
      std::vector<double> l(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
          l[i * n + j] = rng.uniform(-0.4, 0.4);
        }
        l[i * n + i] = rng.uniform(1.0, 2.0);
      }
      const auto rhs = random_vector(rng, n * m);
      std::vector<double> x_scalar = rhs;
      std::vector<double> x_avx2 = rhs;
      solve_lower_multi_inplace_scalar(l.data(), n, x_scalar.data(), m);
      solve_lower_multi_inplace_avx2(l.data(), n, x_avx2.data(), m);
      for (std::size_t i = 0; i < n * m; ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " m=" << m << " i=" << i);
        expect_close(x_avx2[i], x_scalar[i], static_cast<double>(n));
      }
    }
  }
}

TEST(SimdSolveLowerMulti, NanRhsPropagatesDownTheColumn) {
  SKIP_WITHOUT_AVX2();
  Rng rng(6);
  const std::size_t n = 8;
  const std::size_t m = 6;
  std::vector<double> l(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      l[i * n + j] = rng.uniform(-0.4, 0.4);
    }
    l[i * n + i] = 1.5;
  }
  auto rhs = random_vector(rng, n * m);
  rhs[0 * m + 2] = kNan;  // column 2 poisoned from row 0
  std::vector<double> x_scalar = rhs;
  std::vector<double> x_avx2 = rhs;
  solve_lower_multi_inplace_scalar(l.data(), n, x_scalar.data(), m);
  solve_lower_multi_inplace_avx2(l.data(), n, x_avx2.data(), m);
  for (std::size_t i = 0; i < n * m; ++i) {
    EXPECT_EQ(std::isnan(x_avx2[i]), std::isnan(x_scalar[i])) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Sum-of-squares accumulation.

TEST(SimdSumsqRows, Avx2MatchesScalarAcrossShapes) {
  SKIP_WITHOUT_AVX2();
  Rng rng(7);
  const std::size_t rows_cases[] = {0, 1, 2, 3, 4, 5, 8, 11};
  const std::size_t ms[] = {1, 2, 3, 4, 7, 16, 21};
  for (const std::size_t rows : rows_cases) {
    for (const std::size_t m : ms) {
      const auto v = random_vector(rng, rows * m);
      auto acc_scalar = random_vector(rng, m, 0.0, 1.0);
      auto acc_avx2 = acc_scalar;
      sumsq_rows_accumulate_scalar(v.data(), rows, m, acc_scalar.data());
      sumsq_rows_accumulate_avx2(v.data(), rows, m, acc_avx2.data());
      for (std::size_t j = 0; j < m; ++j) {
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << rows << " m=" << m << " j=" << j);
        expect_close(acc_avx2[j], acc_scalar[j],
                     static_cast<double>(rows) + 1.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Correlation rows.

TEST(SimdCorrRow, Avx2MatchesScalarForEveryFamily) {
  SKIP_WITHOUT_AVX2();
  Rng rng(8);
  for (const Corr family : {Corr::kMatern52, Corr::kMatern32, Corr::kRbf}) {
    for (const std::size_t dim : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
      for (std::size_t count = 1; count <= 11; ++count) {
        const auto x = random_vector(rng, dim, 0.0, 1.0);
        const auto lengthscales = random_vector(rng, dim, 0.1, 1.5);
        std::vector<std::vector<double>> pts(count);
        std::vector<const double*> ptrs(count);
        for (std::size_t j = 0; j < count; ++j) {
          pts[j] = random_vector(rng, dim, 0.0, 1.0);
          ptrs[j] = pts[j].data();
        }
        std::vector<double> out_scalar(count);
        std::vector<double> out_avx2(count);
        corr_row_scalar(family, x.data(), ptrs.data(), count,
                        lengthscales.data(), dim, 1.7, out_scalar.data());
        corr_row_avx2(family, x.data(), ptrs.data(), count,
                      lengthscales.data(), dim, 1.7, out_avx2.data());
        for (std::size_t j = 0; j < count; ++j) {
          SCOPED_TRACE(::testing::Message()
                       << "family=" << static_cast<int>(family)
                       << " dim=" << dim << " count=" << count << " j=" << j);
          // Polynomial exp vs libm: a few ulp relative, everything here O(1).
          EXPECT_NEAR(out_avx2[j], out_scalar[j],
                      1e-13 * std::abs(out_scalar[j]) + 1e-300);
        }
      }
    }
  }
}

TEST(SimdCorrRow, UnderflowRangeFlushesLikeLibm) {
  SKIP_WITHOUT_AVX2();
  // Tiny lengthscales make the scaled distance enormous: j=0 lands deep in
  // the normal exp range (relative tolerance applies), the rest drive exp
  // to denormals and then 0 — where libm may return a denormal while the
  // vector path flushes, so agreement is absolute within the largest
  // denormal (2.3e-308).
  const double x[] = {0.0};
  const double p0[] = {1.0};
  const double p1[] = {300.0};
  const double p2[] = {900.0};
  const double p3[] = {2000.0};
  const double* pts[] = {p0, p1, p2, p3};
  const double ls[] = {1e-2};
  double out_scalar[4];
  double out_avx2[4];
  for (const Corr family : {Corr::kMatern52, Corr::kMatern32, Corr::kRbf}) {
    corr_row_scalar(family, x, pts, 4, ls, 1, 1.0, out_scalar);
    corr_row_avx2(family, x, pts, 4, ls, 1, 1.0, out_avx2);
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(out_avx2[j], out_scalar[j],
                  1e-13 * std::abs(out_scalar[j]) + 2.3e-308)
          << "family=" << static_cast<int>(family) << " j=" << j;
      EXPECT_GE(out_avx2[j], 0.0);
    }
  }
}

TEST(SimdCorrRow, OutputIsPositionIndependent) {
  SKIP_WITHOUT_AVX2();
  // Remainder padding means out[j] never depends on where j sits in the
  // batch — the property that keeps a Kernel::cross row bit-equal to
  // one-point rows of the same pairs.
  Rng rng(9);
  const std::size_t dim = 3;
  const std::size_t count = 7;  // exercises the padded 3-lane remainder
  const auto x = random_vector(rng, dim, 0.0, 1.0);
  const auto ls = random_vector(rng, dim, 0.2, 1.0);
  std::vector<std::vector<double>> pts(count);
  std::vector<const double*> ptrs(count);
  for (std::size_t j = 0; j < count; ++j) {
    pts[j] = random_vector(rng, dim, 0.0, 1.0);
    ptrs[j] = pts[j].data();
  }
  std::vector<double> batch(count);
  corr_row_avx2(Corr::kMatern52, x.data(), ptrs.data(), count, ls.data(), dim,
                1.0, batch.data());
  for (std::size_t j = 0; j < count; ++j) {
    double single = 0.0;
    const double* one = pts[j].data();
    corr_row_avx2(Corr::kMatern52, x.data(), &one, 1, ls.data(), dim, 1.0,
                  &single);
    EXPECT_TRUE(bits_equal(batch[j], single)) << "j=" << j;
  }
}

TEST(SimdCorrRow, NanAndInfPropagate) {
  SKIP_WITHOUT_AVX2();
  const double x[] = {0.0, 0.5};
  const double pn[] = {kNan, 0.5};
  const double pi[] = {kInf, 0.5};
  const double pf[] = {0.2, 0.3};
  const double* pts[] = {pn, pi, pf};
  const double ls[] = {0.5, 0.5};
  double out_scalar[3];
  double out_avx2[3];
  corr_row_scalar(Corr::kMatern52, x, pts, 3, ls, 2, 1.0, out_scalar);
  corr_row_avx2(Corr::kMatern52, x, pts, 3, ls, 2, 1.0, out_avx2);
  EXPECT_TRUE(std::isnan(out_avx2[0]));
  EXPECT_TRUE(std::isnan(out_scalar[0]));
  // Infinite distance: the Matern polynomial factor is +inf while the exp
  // factor is 0, so inf * 0 = NaN — on both paths, identically.
  EXPECT_TRUE(std::isnan(out_avx2[1]));
  EXPECT_TRUE(std::isnan(out_scalar[1]));
  EXPECT_NEAR(out_avx2[2], out_scalar[2], 1e-13);
}

// ---------------------------------------------------------------------------
// Batched normal pdf/cdf: bit-identical by contract.

TEST(SimdNormalPdfCdf, BitIdenticalToScalarOnRandomInputs) {
  SKIP_WITHOUT_AVX2();
  Rng rng(10);
  for (const std::size_t count : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{4},
                                  std::size_t{5}, std::size_t{64},
                                  std::size_t{67}}) {
    std::vector<double> t(count);
    for (double& v : t) {
      v = rng.uniform(-40.0, 40.0);
    }
    std::vector<double> pdf_s(count);
    std::vector<double> cdf_s(count);
    std::vector<double> pdf_v(count);
    std::vector<double> cdf_v(count);
    normal_pdf_cdf_batch_scalar(t.data(), count, pdf_s.data(), cdf_s.data());
    normal_pdf_cdf_batch_avx2(t.data(), count, pdf_v.data(), cdf_v.data());
    for (std::size_t i = 0; i < count; ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "count=" << count << " i=" << i << " t=" << t[i]);
      EXPECT_TRUE(bits_equal(pdf_v[i], pdf_s[i]));
      EXPECT_TRUE(bits_equal(cdf_v[i], cdf_s[i]));
    }
  }
}

TEST(SimdNormalPdfCdf, BitIdenticalOnBoundariesAndSpecials) {
  SKIP_WITHOUT_AVX2();
  const double seam = 7.07106781186547;
  const std::vector<double> t = {
      0.0,          -0.0,
      kNan,         kInf,
      -kInf,        seam,
      std::nextafter(seam, 0.0),
      std::nextafter(seam, 10.0),
      37.6,         std::nextafter(37.6, 100.0),
      -37.6,        37.7,
      -37.7,        38.0,
      -38.0,        1e-308,
      -1e-308,      5e-324,
      1.0,          -1.0};
  const std::size_t count = t.size();
  std::vector<double> pdf_s(count);
  std::vector<double> cdf_s(count);
  std::vector<double> pdf_v(count);
  std::vector<double> cdf_v(count);
  normal_pdf_cdf_batch_scalar(t.data(), count, pdf_s.data(), cdf_s.data());
  normal_pdf_cdf_batch_avx2(t.data(), count, pdf_v.data(), cdf_v.data());
  for (std::size_t i = 0; i < count; ++i) {
    SCOPED_TRACE(::testing::Message() << "i=" << i << " t=" << t[i]);
    EXPECT_TRUE(bits_equal(pdf_v[i], pdf_s[i]));
    EXPECT_TRUE(bits_equal(cdf_v[i], cdf_s[i]));
  }
}

// ---------------------------------------------------------------------------
// EHVI strips: bit-identical by contract.

TEST(SimdEhviStrips, BitIdenticalToScalarOnRandomFronts) {
  SKIP_WITHOUT_AVX2();
  Rng rng(11);
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{9},
                              std::size_t{24}}) {
    // bound1 strictly ascending, ceiling2 strictly descending — the shape
    // CompiledFront guarantees.
    std::vector<double> bound1(m);
    std::vector<double> ceiling2(m);
    double b = rng.uniform(0.0, 1.0);
    double c = rng.uniform(5.0, 6.0);
    for (std::size_t k = 0; k < m; ++k) {
      b += rng.uniform(0.1, 0.5);
      c -= rng.uniform(0.1, 0.4);
      bound1[k] = b;
      ceiling2[k] = c;
    }
    const double mu1 = rng.uniform(0.0, 4.0);
    const double sigma1 = rng.uniform(0.1, 1.0);
    const double mu2 = rng.uniform(0.0, 4.0);
    const double sigma2 = rng.uniform(0.1, 1.0);
    const auto pdf1 = random_vector(rng, m, 0.0, 0.4);
    const auto cdf1 = random_vector(rng, m, 0.0, 1.0);
    const auto pdf2 = random_vector(rng, m, 0.0, 0.4);
    const auto cdf2 = random_vector(rng, m, 0.0, 1.0);
    std::vector<double> width_s(m);
    std::vector<double> height_s(m);
    std::vector<double> width_v(m);
    std::vector<double> height_v(m);
    ehvi_strips_scalar(bound1.data(), ceiling2.data(), m, mu1, sigma1, mu2,
                       sigma2, pdf1.data(), cdf1.data(), pdf2.data(),
                       cdf2.data(), width_s.data(), height_s.data());
    ehvi_strips_avx2(bound1.data(), ceiling2.data(), m, mu1, sigma1, mu2,
                     sigma2, pdf1.data(), cdf1.data(), pdf2.data(),
                     cdf2.data(), width_v.data(), height_v.data());
    for (std::size_t k = 0; k < m; ++k) {
      SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k);
      EXPECT_TRUE(bits_equal(width_v[k], width_s[k]));
      EXPECT_TRUE(bits_equal(height_v[k], height_s[k]));
    }
  }
}

// ---------------------------------------------------------------------------
// EHVI degenerate boundary: sigma == 0 beliefs take the exact scalar path
// regardless of dispatch level, so a whole candidate block must come out
// bit-identical across levels even when degenerate and regular beliefs mix.

TEST(SimdEhviBoundary, ZeroSigmaBlockBitIdenticalAcrossLevels) {
  SKIP_WITHOUT_AVX2();
  const std::vector<pareto::Point2> front = {
      {1.0, 3.0}, {2.0, 2.0}, {3.0, 1.0}};
  const pareto::Point2 ref{5.0, 5.0};
  const bo::CompiledFront compiled(front, ref, bo::EhviMode::kFast);
  // Degenerate (one or both sigmas zero), mixed with regular beliefs;
  // count 5 also exercises the block's vector remainder.
  const std::vector<bo::GaussianPair> beliefs = {
      {0.5, 0.0, 0.5, 0.0},   // both zero: deterministic HVI
      {0.5, 0.0, 0.5, 0.3},   // one zero
      {1.5, 0.2, 1.5, 0.0},   // other zero
      {1.5, 0.2, 1.5, 0.3},   // regular
      {4.9, 0.0, 4.9, 0.0},   // degenerate, nearly no improvement
  };
  const Level ambient = active_level();
  std::vector<double> out_avx2(beliefs.size());
  std::vector<double> out_scalar(beliefs.size());
  force_level(Level::kAvx2);
  compiled.ehvi_block(beliefs.data(), beliefs.size(), out_avx2.data());
  force_level(Level::kScalar);
  compiled.ehvi_block(beliefs.data(), beliefs.size(), out_scalar.data());
  force_level(ambient);
  for (std::size_t i = 0; i < beliefs.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "belief " << i);
    EXPECT_TRUE(bits_equal(out_avx2[i], out_scalar[i]));
    // Degenerate beliefs must also match the reference implementation
    // bit-for-bit (the documented ehvi_2d fallback contract).
    if (beliefs[i].sigma1 == 0.0 || beliefs[i].sigma2 == 0.0) {
      EXPECT_TRUE(
          bits_equal(out_avx2[i], bo::ehvi_2d(beliefs[i], front, ref)));
    }
    EXPECT_GE(out_avx2[i], 0.0);
  }
}

// ---------------------------------------------------------------------------
// Dispatch.

TEST(SimdDispatch, LevelNamesRoundTrip) {
  for (const Level level : {Level::kScalar, Level::kAvx2}) {
    const auto parsed = level_from_string(to_string(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(level_from_string("bogus").has_value());
  EXPECT_FALSE(level_from_string("").has_value());
  EXPECT_FALSE(level_from_string("AVX2").has_value());  // case-sensitive
}

TEST(SimdDispatch, ActiveLevelIsExecutable) {
  const Level level = active_level();
  if (level == Level::kAvx2) {
    EXPECT_TRUE(avx2_compiled());
    EXPECT_TRUE(cpu_supports_avx2());
  } else {
    EXPECT_EQ(level, Level::kScalar);
  }
}

TEST(SimdDispatch, ForceLevelOverridesAndRestores) {
  const Level ambient = active_level();
  force_level(Level::kScalar);
  EXPECT_EQ(active_level(), Level::kScalar);
  // Dispatching entry points actually follow the override.
  const double a[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const double b[] = {2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_TRUE(bits_equal(dot_serial(a, b, 5), dot_serial_scalar(a, b, 5)));
  force_level(ambient);
  EXPECT_EQ(active_level(), ambient);
}

}  // namespace
}  // namespace bofl::linalg::simd
