// Covariance kernels for Gaussian-process regression.
//
// The paper (§4.3) models the latency and energy objectives as independent
// GPs with zero prior mean and a Matérn-5/2 kernel.  We implement the
// Matérn-5/2 plus Matérn-3/2 and squared-exponential (RBF) variants with
// ARD (one lengthscale per input dimension) for ablations.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"

namespace bofl::runtime {
class ThreadPool;
}

namespace bofl::gp {

enum class KernelFamily {
  kMatern52,   ///< the paper's choice
  kMatern32,
  kRbf,
};

[[nodiscard]] const char* to_string(KernelFamily family);

/// Inverse of to_string; empty when `name` is not a known family.  Used by
/// the priors KnowledgeStore to round-trip fitted kernels through JSON.
[[nodiscard]] std::optional<KernelFamily> kernel_family_from_string(
    std::string_view name);

/// A stationary ARD kernel k(x, x') = signal_variance * c(r) where r is the
/// lengthscale-weighted Euclidean distance.
class Kernel {
 public:
  Kernel(KernelFamily family, double signal_variance,
         std::vector<double> lengthscales);

  [[nodiscard]] KernelFamily family() const { return family_; }
  [[nodiscard]] double signal_variance() const { return signal_variance_; }
  [[nodiscard]] const std::vector<double>& lengthscales() const {
    return lengthscales_;
  }
  [[nodiscard]] std::size_t input_dimension() const {
    return lengthscales_.size();
  }

  /// Full covariance matrix of a point set (symmetric), written into `out`
  /// (reshaped to n x n, its storage reused).  Large builds (n >= 48) fan
  /// their rows out over `pool` when one is given; every entry is written
  /// to its own slot, so the result is identical for any pool size
  /// (including nullptr = serial).
  void gram(const std::vector<linalg::Vector>& points, linalg::Matrix& out,
            runtime::ThreadPool* pool = nullptr) const;

  /// Cross-covariance vector k(x, X) against a point set.  Entry i depends
  /// only on x and points[i], never on i or the set's size, and k is
  /// symmetric bit for bit: cross(x, P)[i] == cross(P[i], {x})[0].
  [[nodiscard]] linalg::Vector cross(
      const linalg::Vector& x, const std::vector<linalg::Vector>& points) const;

  /// The same row written to out[0..count), for a caller that keeps the
  /// points' data pointers across calls.  `x` and every point hold
  /// input_dimension() values.
  void cross(const double* x, const double* const* points, std::size_t count,
             double* out) const;

 private:
  KernelFamily family_;
  double signal_variance_;
  std::vector<double> lengthscales_;
};

}  // namespace bofl::gp
