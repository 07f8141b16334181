#include "gp/hyperopt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/optim.hpp"

namespace bofl::gp {

namespace {

/// Warm-started refits (see HyperoptProblem::warm_start) run a single
/// Nelder–Mead pass from the previous optimum with a small simplex instead
/// of the multi-start search: the LML optimum moves slowly as observations
/// accumulate, so a short local polish recovers it at a fraction of the
/// evaluation budget.  ~60 iterations keeps the refit an order of magnitude
/// cheaper than a full search at typical phase-2 data sizes.
constexpr std::size_t kWarmStartMaxIterations = 60;
constexpr double kWarmStartStep = 0.05;
// Box bounds (applied by clamping inside the objective; inputs are
// normalized and targets standardized, so these are scale-free).
constexpr double kMinLengthscale = 0.02;
constexpr double kMaxLengthscale = 10.0;
constexpr double kMinSignalVariance = 1e-4;
constexpr double kMaxSignalVariance = 1e2;
constexpr double kMinNoiseVariance = 1e-8;
constexpr double kMaxNoiseVariance = 1.0;

/// Parameter vector layout: [log ls_0 .. log ls_{d-1}, log sv, log nv].
struct ParamCodec {
  std::size_t dim;

  [[nodiscard]] std::size_t size() const { return dim + 2; }

  [[nodiscard]] Kernel decode_kernel(KernelFamily family,
                                     const std::vector<double>& p) const {
    std::vector<double> lengthscales(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      lengthscales[i] =
          std::clamp(std::exp(p[i]), kMinLengthscale, kMaxLengthscale);
    }
    const double sv =
        std::clamp(std::exp(p[dim]), kMinSignalVariance, kMaxSignalVariance);
    return {family, sv, std::move(lengthscales)};
  }

  [[nodiscard]] double decode_noise(const std::vector<double>& p) const {
    return std::clamp(std::exp(p[dim + 1]), kMinNoiseVariance,
                      kMaxNoiseVariance);
  }

  [[nodiscard]] std::vector<double> encode(const HyperoptResult& r) const {
    std::vector<double> p(size());
    for (std::size_t i = 0; i < dim; ++i) {
      p[i] = std::log(r.kernel.lengthscales()[i]);
    }
    p[dim] = std::log(r.kernel.signal_variance());
    p[dim + 1] = std::log(std::max(r.noise_variance, kMinNoiseVariance));
    return p;
  }
};

}  // namespace

std::vector<HyperoptResult> fit_hyperparameters(
    std::span<const HyperoptProblem> problems, Rng& rng,
    const HyperoptOptions& options, runtime::ThreadPool* pool) {
  NelderMeadOptions full_nm;
  full_nm.max_iterations = options.max_iterations_per_start;
  NelderMeadOptions warm_nm;
  warm_nm.max_iterations = kWarmStartMaxIterations;
  warm_nm.initial_step = kWarmStartStep;

  // Plan: one Nelder–Mead run per restart (per problem on the warm path),
  // every start drawn here, serially, in the order the serial loops drew.
  struct Run {
    std::size_t problem;
    std::vector<double> start;
    NelderMeadResult result;
  };
  std::vector<ParamCodec> codecs;
  std::vector<Run> runs;
  codecs.reserve(problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    const HyperoptProblem& problem = problems[p];
    BOFL_REQUIRE(!problem.inputs.empty(), "hyperparameter fitting needs data");
    BOFL_REQUIRE(problem.inputs.size() == problem.targets.size(),
                 "inputs and targets must have equal length");
    const std::size_t dim = problem.inputs.front().size();
    const ParamCodec& codec = codecs.emplace_back(ParamCodec{dim});
    if (problem.warm_start != nullptr) {
      BOFL_REQUIRE(problem.warm_start->kernel.family() == problem.family &&
                       problem.warm_start->kernel.lengthscales().size() == dim,
                   "warm start does not match the kernel family or dimension");
      runs.push_back({p, codec.encode(*problem.warm_start), {}});
      continue;
    }
    for (std::size_t restart = 0; restart < options.num_restarts; ++restart) {
      std::vector<double> start(codec.size());
      if (restart == 0) {
        // Canonical start: moderate lengthscales, unit signal, small noise.
        for (std::size_t i = 0; i < dim; ++i) {
          start[i] = std::log(0.4);
        }
        start[dim] = 0.0;
        start[dim + 1] = std::log(1e-3);
      } else {
        for (std::size_t i = 0; i < dim; ++i) {
          start[i] = rng.uniform(std::log(kMinLengthscale),
                                 std::log(kMaxLengthscale));
        }
        start[dim] = rng.uniform(-1.5, 1.5);
        start[dim + 1] = rng.uniform(std::log(1e-6), std::log(1e-1));
      }
      runs.push_back({p, std::move(start), {}});
    }
  }

  // Run: each result lands in its own slot.
  runtime::parallel_for_each(pool, runs.size(), [&](std::size_t r) {
    Run& run = runs[r];
    const HyperoptProblem& problem = problems[run.problem];
    const ParamCodec& codec = codecs[run.problem];
    auto negative_lml = [&](const std::vector<double>& p) -> double {
      GaussianProcess model(codec.decode_kernel(problem.family, p),
                            codec.decode_noise(p));
      model.condition(problem.inputs, problem.targets);
      return -model.log_marginal_likelihood();
    };
    run.result = nelder_mead(negative_lml, run.start,
                             problem.warm_start != nullptr ? warm_nm : full_nm);
  });

  // Reduce in run order: a warm polish is taken as is; a full search keeps
  // its first strictly best restart.
  std::vector<const NelderMeadResult*> best(problems.size(), nullptr);
  std::vector<double> best_value(problems.size(),
                                 std::numeric_limits<double>::infinity());
  for (const Run& run : runs) {
    if (problems[run.problem].warm_start != nullptr ||
        run.result.f < best_value[run.problem]) {
      best_value[run.problem] = run.result.f;
      best[run.problem] = &run.result;
    }
  }
  std::vector<HyperoptResult> results;
  results.reserve(problems.size());
  for (std::size_t p = 0; p < problems.size(); ++p) {
    BOFL_ASSERT(best[p] != nullptr, "hyperopt produced no candidate");
    results.push_back({codecs[p].decode_kernel(problems[p].family, best[p]->x),
                       codecs[p].decode_noise(best[p]->x),
                       -best_value[p]});
  }
  return results;
}

bool warm_start_compatible(const HyperoptResult& fit, KernelFamily family,
                           std::size_t input_dimension) {
  if (fit.kernel.family() != family ||
      fit.kernel.input_dimension() != input_dimension) {
    return false;
  }
  if (!std::isfinite(fit.kernel.signal_variance()) ||
      fit.kernel.signal_variance() <= 0.0) {
    return false;
  }
  for (const double ls : fit.kernel.lengthscales()) {
    if (!std::isfinite(ls) || ls <= 0.0) {
      return false;
    }
  }
  return std::isfinite(fit.noise_variance) && fit.noise_variance >= 0.0 &&
         std::isfinite(fit.log_marginal_likelihood);
}

}  // namespace bofl::gp
