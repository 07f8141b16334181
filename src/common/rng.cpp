#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace bofl {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 expansion guarantees a non-zero xoshiro state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BOFL_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  BOFL_REQUIRE(n > 0, "uniform_index needs a non-empty range");
  // Lemire-style rejection-free bounded draw is overkill here; modulo bias
  // for n << 2^64 is far below any effect BoFL measures, but we still use
  // rejection sampling to keep the property tests exact.
  const std::uint64_t bound = n;
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return static_cast<std::size_t>(r % bound);
    }
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BOFL_REQUIRE(lo <= hi, "uniform_int needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Box–Muller; u1 is bounded away from zero to keep log finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  BOFL_REQUIRE(stddev >= 0.0, "normal stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::lognormal_mean1(double cv) { return LognormalMean1(cv)(*this); }

LognormalMean1::LognormalMean1(double cv) {
  BOFL_REQUIRE(cv >= 0.0, "coefficient of variation must be non-negative");
  if (cv == 0.0) {
    return;
  }
  const double sigma2 = std::log1p(cv * cv);
  mu_ = -0.5 * sigma2;
  sigma_ = std::sqrt(sigma2);
  degenerate_ = false;
}

bool Rng::bernoulli(double p) {
  BOFL_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0, 1]");
  return uniform() < p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  BOFL_REQUIRE(k <= n, "cannot sample more elements than the population");
  // Partial Fisher–Yates over an index vector: O(n) space, exact.
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool[i] = i;
  }
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

Rng Rng::split() {
  // Mix two draws into a fresh seed; streams overlap with probability ~2^-64.
  std::uint64_t s = (*this)() ^ rotl((*this)(), 29);
  return Rng(splitmix64(s));
}

}  // namespace bofl
