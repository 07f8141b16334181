// Low-discrepancy (quasi-random) sequence.
//
// BoFL's safe random exploration phase (§4.2 of the paper) samples its
// starting points "uniformly distributed over X, using a quasi-random
// number generator".  SobolSequence is direction-number based, supports up
// to 8 dimensions with the classic Joe–Kuo parameters embedded, and
// produces points in the unit hypercube [0, 1)^d.
#pragma once

#include <cstdint>
#include <vector>

namespace bofl {

/// Sobol sequence (Gray-code construction) for up to 8 dimensions.
class SobolSequence {
 public:
  static constexpr std::size_t kMaxDimension = 8;

  explicit SobolSequence(std::size_t dimension);

  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  /// The next point in the sequence.
  [[nodiscard]] std::vector<double> next();
  /// The next n points.
  [[nodiscard]] std::vector<std::vector<double>> take(std::size_t n);

 private:
  std::size_t dimension_;
  std::uint64_t index_ = 0;
  std::vector<std::vector<std::uint64_t>> direction_;  // [dim][bit]
  std::vector<std::uint64_t> current_;                 // Gray-code state
};

/// Map a point in [0,1)^d onto a mixed-radix integer grid: coordinate i is
/// floor(u_i * sizes[i]), clamped to sizes[i]-1.  Used to project quasi-
/// random points onto the discrete DVFS lattice.
[[nodiscard]] std::vector<std::size_t> to_grid_indices(
    const std::vector<double>& unit_point, const std::vector<std::size_t>& sizes);

}  // namespace bofl
