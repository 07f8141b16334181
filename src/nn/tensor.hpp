// A minimal dense tensor for the neural-network substrate.
//
// The FL layer needs real gradient computation so that FedAvg aggregates
// something meaningful; it does not need performance.  Tensor is a
// row-major float buffer with shape bookkeeping; layers implement their
// own kernels on top of it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"

namespace bofl::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0f);

  [[nodiscard]] static Tensor zeros(std::vector<std::size_t> shape);
  /// Gaussian init with the given standard deviation.
  [[nodiscard]] static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                                    float stddev);

  [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  [[nodiscard]] float& operator[](std::size_t flat) { return data_[flat]; }
  [[nodiscard]] float operator[](std::size_t flat) const {
    return data_[flat];
  }

  /// 2-D accessors (row-major); requires rank 2.
  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  void fill(float value);

  /// Element-wise in-place a += s * b; shapes must match.
  void add_scaled(const Tensor& b, float s);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// C = A(m,k) * B(k,n); shapes validated.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A(m,k) * B(n,k)^T -> (m,n).
[[nodiscard]] Tensor matmul_transposed_b(const Tensor& a, const Tensor& b);

/// C = A(k,m)^T * B(k,n) -> (m,n).
[[nodiscard]] Tensor matmul_transposed_a(const Tensor& a, const Tensor& b);

}  // namespace bofl::nn
