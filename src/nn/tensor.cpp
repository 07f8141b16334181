#include "nn/tensor.hpp"

#include <numeric>

#include "common/error.hpp"

namespace bofl::nn {

namespace {
std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) {
    BOFL_REQUIRE(d > 0, "tensor dimensions must be positive");
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(shape_size(shape_), fill) {
  BOFL_REQUIRE(!shape_.empty(), "tensor needs at least one dimension");
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape), 0.0f);
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  BOFL_REQUIRE(axis < shape_.size(), "tensor axis out of range");
  return shape_[axis];
}

float& Tensor::at(std::size_t r, std::size_t c) {
  BOFL_REQUIRE(rank() == 2, "2-D accessor on non-matrix tensor");
  return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  BOFL_REQUIRE(rank() == 2, "2-D accessor on non-matrix tensor");
  return data_[r * shape_[1] + c];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_scaled(const Tensor& b, float s) {
  BOFL_REQUIRE(shape_ == b.shape_, "add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += s * b.data_[i];
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  BOFL_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(0),
               "matmul shape mismatch");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = a.at(i, kk);
      if (aik == 0.0f) {
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        c.at(i, j) += aik * b.at(kk, j);
      }
    }
  }
  return c;
}

Tensor matmul_transposed_b(const Tensor& a, const Tensor& b) {
  BOFL_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1),
               "matmul_transposed_b shape mismatch");
  const std::size_t m = a.dim(0);
  const std::size_t k = a.dim(1);
  const std::size_t n = b.dim(0);
  Tensor c({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += a.at(i, kk) * b.at(j, kk);
      }
      c.at(i, j) = sum;
    }
  }
  return c;
}

Tensor matmul_transposed_a(const Tensor& a, const Tensor& b) {
  BOFL_REQUIRE(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0),
               "matmul_transposed_a shape mismatch");
  const std::size_t k = a.dim(0);
  const std::size_t m = a.dim(1);
  const std::size_t n = b.dim(1);
  Tensor c({m, n});
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = a.at(kk, i);
      if (aki == 0.0f) {
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        c.at(i, j) += aki * b.at(kk, j);
      }
    }
  }
  return c;
}

}  // namespace bofl::nn
