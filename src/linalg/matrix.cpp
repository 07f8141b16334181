#include "linalg/matrix.hpp"

#include "common/error.hpp"
#include "linalg/simd/kernels.hpp"

namespace bofl::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    BOFL_REQUIRE(row.size() == cols_, "all matrix rows must have equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

void Matrix::assign(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  BOFL_REQUIRE(a.cols() == b.rows(), "matrix product shape mismatch");
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double* ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      const double* bk = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        ci[j] += aik * bk[j];
      }
    }
  }
  return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
  BOFL_REQUIRE(a.cols() == x.size(), "matrix-vector shape mismatch");
  const std::size_t n = a.cols();
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.row(i);
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      sum += ai[j] * x[j];
    }
    y[i] = sum;
  }
  return y;
}

double dot(const Vector& a, const Vector& b) {
  BOFL_REQUIRE(a.size() == b.size(), "dot product requires equal sizes");
  return simd::dot_serial(a.data(), b.data(), a.size());
}

}  // namespace bofl::linalg
