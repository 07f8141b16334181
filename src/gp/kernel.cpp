#include "gp/kernel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/simd/kernels.hpp"
#include "runtime/thread_pool.hpp"

namespace bofl::gp {

namespace {

/// KernelFamily and simd::Corr enumerate the same families in the same
/// order; the dispatched row kernel takes the latter.
inline linalg::simd::Corr to_corr(KernelFamily family) {
  return static_cast<linalg::simd::Corr>(static_cast<int>(family));
}

}  // namespace

const char* to_string(KernelFamily family) {
  switch (family) {
    case KernelFamily::kMatern52:
      return "matern52";
    case KernelFamily::kMatern32:
      return "matern32";
    case KernelFamily::kRbf:
      return "rbf";
  }
  return "unknown";
}

std::optional<KernelFamily> kernel_family_from_string(std::string_view name) {
  for (const KernelFamily family :
       {KernelFamily::kMatern52, KernelFamily::kMatern32, KernelFamily::kRbf}) {
    if (name == to_string(family)) {
      return family;
    }
  }
  return std::nullopt;
}

Kernel::Kernel(KernelFamily family, double signal_variance,
               std::vector<double> lengthscales)
    : family_(family),
      signal_variance_(signal_variance),
      lengthscales_(std::move(lengthscales)) {
  BOFL_REQUIRE(signal_variance_ > 0.0, "signal variance must be positive");
  BOFL_REQUIRE(!lengthscales_.empty(), "need at least one lengthscale");
  for (double ls : lengthscales_) {
    BOFL_REQUIRE(ls > 0.0, "lengthscales must be positive");
  }
}

void Kernel::gram(const std::vector<linalg::Vector>& points,
                  linalg::Matrix& out, runtime::ThreadPool* pool) const {
  const std::size_t n = points.size();
  const std::size_t dim = lengthscales_.size();
  std::vector<const double*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i) {
    BOFL_REQUIRE(points[i].size() == dim, "kernel input dimension mismatch");
    ptrs[i] = points[i].data();
  }
  out.assign(n, n);
  // Each row evaluates its strict upper triangle in one dispatched batch
  // (the row's slots in out are contiguous), then mirrors below the diagonal.
  auto fill_row = [&](std::size_t i) {
    out(i, i) = signal_variance_;
    if (i + 1 < n) {
      linalg::simd::corr_row(to_corr(family_), ptrs[i], ptrs.data() + i + 1,
                             n - i - 1, lengthscales_.data(), dim,
                             signal_variance_, out.row(i) + i + 1);
    }
    for (std::size_t j = i + 1; j < n; ++j) {
      out(j, i) = out(i, j);
    }
  };
  // Below ~48 points the n^2/2 kernel evaluations are cheaper than waking
  // workers; the GP fits in hyperopt's inner loop live mostly below this.
  constexpr std::size_t kParallelThreshold = 48;
  if (pool != nullptr && n >= kParallelThreshold) {
    runtime::parallel_for_each(pool, n, fill_row);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      fill_row(i);
    }
  }
}

linalg::Vector Kernel::cross(const linalg::Vector& x,
                             const std::vector<linalg::Vector>& points) const {
  const std::size_t dim = lengthscales_.size();
  BOFL_REQUIRE(x.size() == dim, "kernel input dimension mismatch");
  std::vector<const double*> ptrs(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    BOFL_REQUIRE(points[i].size() == dim, "kernel input dimension mismatch");
    ptrs[i] = points[i].data();
  }
  linalg::Vector k(points.size());
  cross(x.data(), ptrs.data(), ptrs.size(), k.data());
  return k;
}

void Kernel::cross(const double* x, const double* const* points,
                   std::size_t count, double* out) const {
  linalg::simd::corr_row(to_corr(family_), x, points, count,
                         lengthscales_.data(), lengthscales_.size(),
                         signal_variance_, out);
}

}  // namespace bofl::gp
