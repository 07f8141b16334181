#include "common/quasirandom.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace bofl {

namespace {

// Joe–Kuo direction-number parameters for Sobol dimensions 2..8.
// Dimension 1 is the van der Corput sequence (all m_i = 1).
// Each row: degree s, primitive-polynomial coefficient a, initial m values.
struct SobolParams {
  unsigned degree;
  unsigned poly_a;
  std::array<std::uint64_t, 7> m;
};

constexpr std::array<SobolParams, 7> kSobolParams = {{
    {1, 0, {1, 0, 0, 0, 0, 0, 0}},
    {2, 1, {1, 3, 0, 0, 0, 0, 0}},
    {3, 1, {1, 3, 1, 0, 0, 0, 0}},
    {3, 2, {1, 1, 1, 0, 0, 0, 0}},
    {4, 1, {1, 1, 3, 3, 0, 0, 0}},
    {4, 4, {1, 3, 5, 13, 0, 0, 0}},
    {5, 2, {1, 1, 5, 5, 17, 0, 0}},
}};

constexpr unsigned kSobolBits = 52;  // fits exactly in a double mantissa

}  // namespace

SobolSequence::SobolSequence(std::size_t dimension)
    : dimension_(dimension),
      direction_(dimension, std::vector<std::uint64_t>(kSobolBits, 0)),
      current_(dimension, 0) {
  BOFL_REQUIRE(dimension >= 1 && dimension <= kMaxDimension,
               "SobolSequence supports 1..8 dimensions");
  // Dimension 0: van der Corput — V_j = 2^(bits-1-j).
  for (unsigned j = 0; j < kSobolBits; ++j) {
    direction_[0][j] = std::uint64_t{1} << (kSobolBits - 1 - j);
  }
  for (std::size_t d = 1; d < dimension_; ++d) {
    const SobolParams& p = kSobolParams[d - 1];
    const unsigned s = p.degree;
    std::vector<std::uint64_t> m(kSobolBits);
    for (unsigned j = 0; j < s; ++j) {
      m[j] = p.m[j];
    }
    for (unsigned j = s; j < kSobolBits; ++j) {
      std::uint64_t value = m[j - s] ^ (m[j - s] << s);
      for (unsigned k = 1; k < s; ++k) {
        if ((p.poly_a >> (s - 1 - k)) & 1U) {
          value ^= m[j - k] << k;
        }
      }
      m[j] = value;
    }
    for (unsigned j = 0; j < kSobolBits; ++j) {
      direction_[d][j] = m[j] << (kSobolBits - 1 - j);
    }
  }
}

std::vector<double> SobolSequence::next() {
  // Gray-code update: flip the direction number of the lowest zero bit of
  // the previous index.  Point 0 is the origin; we emit it like standard
  // implementations do (callers who dislike (0,...,0) can drop it).
  std::vector<double> point(dimension_);
  constexpr double scale = 1.0 / static_cast<double>(std::uint64_t{1} << kSobolBits);
  for (std::size_t d = 0; d < dimension_; ++d) {
    point[d] = static_cast<double>(current_[d]) * scale;
  }
  unsigned lowest_zero = 0;
  std::uint64_t value = index_;
  while (value & 1U) {
    value >>= 1;
    ++lowest_zero;
  }
  BOFL_ASSERT(lowest_zero < kSobolBits, "Sobol sequence exhausted");
  for (std::size_t d = 0; d < dimension_; ++d) {
    current_[d] ^= direction_[d][lowest_zero];
  }
  ++index_;
  return point;
}

std::vector<std::vector<double>> SobolSequence::take(std::size_t n) {
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(next());
  }
  return points;
}

std::vector<std::size_t> to_grid_indices(const std::vector<double>& unit_point,
                                         const std::vector<std::size_t>& sizes) {
  BOFL_REQUIRE(unit_point.size() == sizes.size(),
               "point dimension must match grid dimension");
  std::vector<std::size_t> indices(sizes.size());
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    BOFL_REQUIRE(sizes[d] > 0, "grid dimensions must be non-empty");
    const double u = std::clamp(unit_point[d], 0.0, std::nextafter(1.0, 0.0));
    indices[d] = std::min(static_cast<std::size_t>(u * static_cast<double>(sizes[d])),
                          sizes[d] - 1);
  }
  return indices;
}

}  // namespace bofl
