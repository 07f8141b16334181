// Dense-linalg kernel sweeps: kernel Gram builds, Cholesky factorization
// and the multi-RHS triangular solve, over the matrix sizes the GP hot path
// actually sees (tens of observations, ~2100-candidate blocks).  Emits
// BENCH_linalg_kernels.json so kernel regressions show up in the perf
// trajectory; the `optimized` flag records whether the binary was compiled
// with optimization (unoptimized numbers are not comparable).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "figure_common.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "telemetry/json_reader.hpp"

namespace {

using namespace bofl;

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = rng.normal();
    }
  }
  return m;
}

/// A^T A + n I for a random A: symmetric positive definite.
linalg::Matrix random_spd(std::size_t n, Rng& rng) {
  const linalg::Matrix a = random_matrix(n, n, rng);
  linalg::Matrix spd(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += a(k, i) * a(k, j);
      }
      spd(i, j) = sum;
    }
    spd(i, i) += static_cast<double>(n);
  }
  return spd;
}

/// Best-of-`reps` wall time of fn(), in seconds.  `sink` defeats dead-code
/// elimination: callers accumulate a dependent value into it.
template <typename Fn>
double best_seconds(int reps, double& sink, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    sink += fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

/// Baseline `seconds`-style field for the row in section `section` whose
/// "n" equals `n`, or 0 when the baseline has no such row.
double baseline_seconds(const telemetry::JsonNode& metrics,
                        const char* section, std::size_t n,
                        const char* field) {
  const telemetry::JsonNode* rows = metrics.find(section);
  if (rows == nullptr || rows->type != telemetry::JsonNode::Type::kArray) {
    return 0.0;
  }
  for (const telemetry::JsonNode& row : rows->array) {
    if (telemetry::number_field(row, "n", -1.0) == static_cast<double>(n)) {
      return telemetry::number_field(row, field, 0.0);
    }
  }
  return 0.0;
}

/// Speedup-vs-baseline section: every timed kernel row compared against the
/// committed pre-SIMD numbers, printed and folded into the bench JSON so
/// the perf trajectory carries the acceptance ratio itself (target >= 2x on
/// the hot kernels at the current simd_level).  Missing/unreadable baseline
/// skips the section rather than failing the bench.
void report_vs_baseline(const std::string& path,
                        const std::vector<std::tuple<const char*, std::size_t,
                                                     const char*, double>>&
                            measured,
                        telemetry::JsonValue& metrics) {
  std::ifstream in(path);
  if (!in) {
    std::printf("\n  (baseline %s not found; speedup section skipped)\n",
                path.c_str());
    return;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  telemetry::JsonNode root;
  try {
    root = telemetry::parse_json(buffer.str());
  } catch (const std::exception& e) {
    std::printf("\n  (baseline %s unreadable: %s; speedup section skipped)\n",
                path.c_str(), e.what());
    return;
  }
  const telemetry::JsonNode* base = root.find("metrics");
  if (base == nullptr) {
    std::printf("\n  (baseline %s has no metrics; speedup section skipped)\n",
                path.c_str());
    return;
  }
  bench::print_header("Speedup vs committed pre-SIMD baseline",
                      "baseline: " + path);
  std::printf("  %-10s %6s %14s %14s %9s\n", "kernel", "n", "baseline [ms]",
              "now [ms]", "speedup");
  telemetry::JsonValue rows = telemetry::JsonValue::array();
  for (const auto& [section, n, field, now_seconds] : measured) {
    const double base_seconds = baseline_seconds(*base, section, n, field);
    if (base_seconds <= 0.0 || now_seconds <= 0.0) {
      continue;
    }
    const double speedup = base_seconds / now_seconds;
    std::printf("  %-10s %6zu %14.3f %14.3f %8.2fx\n", section, n,
                base_seconds * 1e3, now_seconds * 1e3, speedup);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("kernel", section)
        .set("n", static_cast<std::uint64_t>(n))
        .set("baseline_seconds", base_seconds)
        .set("seconds", now_seconds)
        .set("speedup", speedup);
    rows.push_back(std::move(row));
  }
  metrics.set("speedup_vs_baseline", std::move(rows));
}

}  // namespace

int main(int argc, char** argv) {
  bench::configure_threads(argc, argv);
  const FlagParser flags(argc, argv);
  const std::string baseline_path = flags.get(
      "baseline", "bench/baselines/BENCH_linalg_kernels_baseline.json");
  Rng rng(20220901);
  double sink = 0.0;
  // (section, n, baseline field, measured seconds) for the speedup report.
  std::vector<std::tuple<const char*, std::size_t, const char*, double>>
      measured;
  telemetry::JsonValue metrics = telemetry::JsonValue::object();
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  metrics.set("optimized", optimized);

  bench::print_header("Kernel Gram build (Matérn-5/2, 3-D inputs)",
                      "serial vs. fanned out over the shared worker pool");
  std::printf("  %6s %14s %14s %10s\n", "n", "serial [ms]", "pool [ms]",
              "speedup");
  telemetry::JsonValue gram = telemetry::JsonValue::array();
  const gp::Kernel kernel(gp::KernelFamily::kMatern52, 1.0, {0.3, 0.3, 0.3});
  for (const std::size_t n : {32u, 64u, 128u, 256u}) {
    std::vector<linalg::Vector> points;
    points.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    }
    linalg::Matrix k;
    const double serial = best_seconds(20, sink, [&] {
      kernel.gram(points, k);
      return k(n - 1, 0);
    });
    const double pooled = best_seconds(20, sink, [&] {
      kernel.gram(points, k, &bench::shared_pool());
      return k(n - 1, 0);
    });
    std::printf("  %6zu %14.3f %14.3f %10.2f\n", n, serial * 1e3,
                pooled * 1e3, serial / pooled);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("n", n)
        .set("serial_seconds", serial)
        .set("pool_seconds", pooled);
    gram.push_back(std::move(row));
    measured.emplace_back("gram", n, "serial_seconds", serial);
  }
  metrics.set("gram", std::move(gram));

  bench::print_header("Cholesky factorization (row-oriented, contiguous dots)");
  std::printf("  %6s %14s %12s\n", "n", "best [ms]", "GFLOP/s");
  telemetry::JsonValue chol = telemetry::JsonValue::array();
  for (const std::size_t n : {32u, 64u, 128u, 256u}) {
    const linalg::Matrix spd = random_spd(n, rng);
    linalg::Matrix l;
    const double secs = best_seconds(20, sink, [&] {
      (void)linalg::cholesky(spd, l);
      return l(n - 1, n - 1);
    });
    const double gflops =
        static_cast<double>(n) * n * n / 3.0 / secs / 1e9;
    std::printf("  %6zu %14.3f %12.2f\n", n, secs * 1e3, gflops);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("n", n).set("seconds", secs).set("gflops", gflops);
    chol.push_back(std::move(row));
    measured.emplace_back("cholesky", n, "seconds", secs);
  }
  metrics.set("cholesky", std::move(chol));

  bench::print_header(
      "Triangular solve: 2048 RHS (one EHVI candidate sweep)",
      "blocked multi-RHS solve vs. 2048 independent solve_lower calls");
  std::printf("  %6s %16s %16s %10s\n", "n", "per-RHS [ms]", "blocked [ms]",
              "speedup");
  telemetry::JsonValue multi = telemetry::JsonValue::array();
  for (const std::size_t n : {30u, 60u, 90u}) {
    const std::size_t m = 2048;
    const linalg::Matrix spd = random_spd(n, rng);
    linalg::Matrix l;
    BOFL_ASSERT(linalg::cholesky(spd, l), "random SPD matrix must factor");
    const linalg::Matrix b = random_matrix(n, m, rng);
    const double per_rhs = best_seconds(10, sink, [&] {
      double acc = 0.0;
      linalg::Vector col(n);
      for (std::size_t c = 0; c < m; ++c) {
        for (std::size_t r = 0; r < n; ++r) {
          col[r] = b(r, c);
        }
        acc += linalg::solve_lower(l, col)[n - 1];
      }
      return acc;
    });
    const double blocked = best_seconds(10, sink, [&] {
      return linalg::solve_lower_multi(l, b)(n - 1, m - 1);
    });
    std::printf("  %6zu %16.3f %16.3f %10.2f\n", n, per_rhs * 1e3,
                blocked * 1e3, per_rhs / blocked);
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("n", n)
        .set("rhs", m)
        .set("per_rhs_seconds", per_rhs)
        .set("blocked_seconds", blocked)
        .set("speedup", per_rhs / blocked);
    multi.push_back(std::move(row));
    measured.emplace_back("multi_rhs", n, "blocked_seconds", blocked);
  }
  metrics.set("multi_rhs", std::move(multi));

  report_vs_baseline(baseline_path, measured, metrics);

  std::printf("\n  (sink=%.3g, optimized=%d)\n", sink, optimized ? 1 : 0);
  bench::write_bench_json("linalg_kernels", std::move(metrics));
  return 0;
}
