// Minimal dense linear algebra for the GP and LP layers.
//
// BoFL's matrices are small (GP kernel matrices of at most a few hundred
// observations; simplex tableaus with a handful of constraints), so a plain
// row-major dense representation is the right tool — no expression
// templates, no external dependency.  The kernels are register-blocked and
// branch-free in their inner loops so the compiler auto-vectorizes them;
// the MBO proposal path runs them thousands of times per round.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace bofl::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Reshape to rows x cols with every entry `fill`, reusing the storage
  /// when it is large enough (the GP refits write into matrices this way).
  void assign(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  /// Raw pointer to row `r` (rows are contiguous in row-major storage).
  /// The blocked kernels in matrix.cpp / cholesky.cpp hoist these out of
  /// their inner loops so the compiler sees plain unit-stride arrays.
  [[nodiscard]] double* row(std::size_t r) { return data_.data() + r * cols_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  /// With the two products below: the L·Lᵀ and A·x oracles of the
  /// Cholesky tests.
  [[nodiscard]] Matrix transposed() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);
[[nodiscard]] Vector operator*(const Matrix& a, const Vector& x);

/// Dot product; requires equal sizes.
[[nodiscard]] double dot(const Vector& a, const Vector& b);

}  // namespace bofl::linalg
