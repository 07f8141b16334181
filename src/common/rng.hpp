// Deterministic pseudo-random number generation.
//
// Every stochastic component in BoFL takes an explicit seed so that the
// whole simulation — device noise, deadline sampling, exploration order —
// is reproducible.  The generator is xoshiro256** (Blackman & Vigna, 2018)
// seeded via SplitMix64, which is fast, high quality, and trivially
// splittable for independent substreams.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace bofl {

/// SplitMix64: used for seeding and for cheap one-shot hashes.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The two halves of stream_seed: StreamHash(base)(stream) ==
/// stream_seed(base, stream).  Construction mixes the base; a loop over many
/// streams of one base (a round's clients) pays that mix once, not per
/// stream.
class StreamHash {
 public:
  explicit StreamHash(std::uint64_t base) : mixed_(splitmix64(base)) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t stream) const {
    std::uint64_t mixed = mixed_ ^ stream;
    return splitmix64(mixed);
  }

 private:
  std::uint64_t mixed_;
};

/// Integer form of a Bernoulli(p) draw on a 64-bit hash h: for every p,
///   (h >> 11) < unit_threshold(p)  <=>  double(h >> 11) * 2^-53 < p.
/// Scaling by 2^53 is exact and k = h >> 11 is an integer below 2^53, so
/// k < p * 2^53 <=> k < ceil(p * 2^53); p >= 1 gives 2^53 (always true),
/// p <= 0 and NaN give 0 (never).  A loop over many clients pays the
/// conversion once per probability, not once per draw.
[[nodiscard]] inline std::uint64_t unit_threshold(double p) {
  if (!(p > 0.0)) {
    return 0;
  }
  if (p >= 1.0) {
    return std::uint64_t{1} << 53;
  }
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Deterministic seed for substream `stream` of a base seed.  Parallel code
/// derives one independent Rng per *task* (client, candidate, round — never
/// per thread), so results are bit-identical whatever the worker count and
/// scheduling order (runtime/thread_pool.hpp relies on this contract).
/// Two SplitMix64 passes decorrelate even adjacent (base, stream) pairs.
[[nodiscard]] inline std::uint64_t stream_seed(std::uint64_t base,
                                               std::uint64_t stream) {
  return StreamHash(base)(stream);
}

/// xoshiro256** PRNG.  Satisfies UniformRandomBitGenerator so it can be
/// plugged into <random> distributions, but the convenience members below
/// cover everything BoFL needs without the libstdc++ distribution quirks.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()();

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  Requires n > 0.
  [[nodiscard]] std::size_t uniform_index(std::size_t n);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box–Muller (cached spare deviate).
  [[nodiscard]] double normal();

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// One draw of LognormalMean1(cv): multiplicative noise with expectation
  /// exactly 1 and coefficient of variation `cv`.
  [[nodiscard]] double lognormal_mean1(double cv);

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool bernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

  /// Derive an independent child generator (for substreams).
  [[nodiscard]] Rng split();

 private:
  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// Lognormal distribution with mean exactly 1 and coefficient of variation
/// `cv`, for multiplicative measurement noise.  X = exp(N(mu, sigma^2))
/// with sigma^2 = log(1 + cv^2) and mu = -sigma^2/2 gives E[X] = 1 and
/// CV(X) = cv exactly.  The constructor does the transcendentals once, so a
/// loop drawing with a fixed cv pays one exp and one normal per draw.
class LognormalMean1 {
 public:
  /// Requires cv >= 0.
  explicit LognormalMean1(double cv);

  /// Exactly 1.0 at cv == 0 (and no draw); otherwise one normal() draw.
  [[nodiscard]] double operator()(Rng& rng) const {
    if (degenerate_) {
      return 1.0;
    }
    return std::exp(mu_ + sigma_ * rng.normal());
  }

 private:
  double mu_ = 0.0;
  double sigma_ = 0.0;
  bool degenerate_ = true;
};

}  // namespace bofl
