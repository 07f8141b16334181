#include "bo/mbo_engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "pareto/hypervolume.hpp"
#include "telemetry/scoped_timer.hpp"

namespace bofl::bo {

MboEngine::MboEngine(std::vector<linalg::Vector> candidates,
                     MboOptions options, std::uint64_t seed)
    : candidates_(std::move(candidates)),
      options_(options),
      rng_(seed),
      observed_(candidates_.size(), false) {
  BOFL_REQUIRE(!candidates_.empty(), "MboEngine needs a candidate set");
  const std::size_t dim = candidates_.front().size();
  for (const auto& c : candidates_) {
    BOFL_REQUIRE(c.size() == dim, "all candidates must share one dimension");
  }
  BOFL_REQUIRE(options_.max_batch_size >= 1, "max batch size must be >= 1");
}

double MboEngine::transform(double raw) const {
  BOFL_REQUIRE(raw > 0.0, "log-transformed objectives must be positive");
  return std::log(raw);
}

void MboEngine::add_observation(const MboObservation& obs) {
  BOFL_REQUIRE(obs.candidate_index < candidates_.size(),
               "candidate index out of range");
  BOFL_REQUIRE(std::isfinite(obs.f1) && std::isfinite(obs.f2),
               "objective values must be finite");
  BOFL_REQUIRE(obs.f1 > 0.0 && obs.f2 > 0.0,
               "objectives must be positive under the log transform");
  observations_.push_back(obs);
  if (!observed_[obs.candidate_index]) {
    observed_[obs.candidate_index] = true;
    ++num_observed_candidates_;
  }
}

void MboEngine::set_reference(const pareto::Point2& ref) { reference_ = ref; }

pareto::Point2 MboEngine::reference() const {
  if (reference_) {
    return *reference_;
  }
  BOFL_REQUIRE(!observations_.empty(),
               "reference point needs observations or set_reference()");
  pareto::Point2 worst{-std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()};
  for (const MboObservation& o : observations_) {
    worst.f1 = std::max(worst.f1, o.f1);
    worst.f2 = std::max(worst.f2, o.f2);
  }
  return worst;
}

bool MboEngine::is_observed(std::size_t candidate_index) const {
  BOFL_REQUIRE(candidate_index < candidates_.size(),
               "candidate index out of range");
  return observed_[candidate_index];
}

bool MboEngine::seed_warm_start(const gp::HyperoptResult& fit1,
                                const gp::HyperoptResult& fit2) {
  BOFL_REQUIRE(!candidates_.empty(), "engine has no candidates");
  const std::size_t dim = candidates_.front().size();
  if (!gp::warm_start_compatible(fit1, options_.kernel_family, dim) ||
      !gp::warm_start_compatible(fit2, options_.kernel_family, dim)) {
    return false;
  }
  warm_fit1_ = fit1;
  warm_fit2_ = fit2;
  // Count the seed as a completed fit so the first propose_batch takes the
  // warm-polish path instead of an immediate full search (fits % period ==
  // 0 with zero fits would otherwise force the search and discard the seed).
  hyperopt_fits_ = 1;
  return true;
}

std::vector<pareto::Point2> MboEngine::observed_front() const {
  std::vector<pareto::Point2> points;
  points.reserve(observations_.size());
  for (const MboObservation& o : observations_) {
    points.push_back({o.f1, o.f2});
  }
  return pareto::pareto_front(std::move(points));
}

double MboEngine::observed_hypervolume() const {
  return pareto::hypervolume_2d(observed_front(), reference());
}

std::vector<std::size_t> MboEngine::propose_batch(std::size_t batch_size) {
  BOFL_REQUIRE(observations_.size() >= kMinProposeObservations,
               "propose_batch needs at least 3 observations");
  batch_size = std::min(batch_size, options_.max_batch_size);

  telemetry::Registry* reg = telemetry::global_registry();
  telemetry::ScopedTimer propose_timer(
      reg != nullptr ? &reg->histogram("mbo.propose_seconds") : nullptr);
  if (reg != nullptr) {
    reg->counter("mbo.propose_calls").add(1);
  }

  if (options_.acquisition == AcquisitionKind::kRandomUnobserved) {
    // Ablation strategy: uniform over the unobserved candidates, no GP.
    std::vector<std::size_t> unobserved;
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      if (!observed_[c]) {
        unobserved.push_back(c);
      }
    }
    rng_.shuffle(unobserved);
    if (unobserved.size() > batch_size) {
      unobserved.resize(batch_size);
    }
    last_best_ehvi_.reset();
    if (reg != nullptr) {
      reg->histogram("mbo.batch_size",
                     telemetry::exponential_buckets(1.0, 2.0, 8))
          .observe(static_cast<double>(unobserved.size()));
    }
    return unobserved;
  }

  // --- 1. Standardize targets in transformed space. -----------------------
  std::vector<double> t1;
  std::vector<double> t2;
  std::vector<linalg::Vector> inputs;
  t1.reserve(observations_.size());
  t2.reserve(observations_.size());
  inputs.reserve(observations_.size());
  for (const MboObservation& o : observations_) {
    inputs.push_back(candidates_[o.candidate_index]);
    t1.push_back(transform(o.f1));
    t2.push_back(transform(o.f2));
  }
  auto make_standardizer = [](const std::vector<double>& v) {
    Standardizer s;
    s.mean = mean_of(v);
    const double sd = stddev_of(v);
    s.scale = sd > 1e-12 ? sd : 1.0;
    return s;
  };
  const Standardizer s1 = make_standardizer(t1);
  const Standardizer s2 = make_standardizer(t2);
  std::vector<double> z1(t1.size());
  std::vector<double> z2(t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    z1[i] = s1.forward(t1[i]);
    z2[i] = s2.forward(t2[i]);
  }

  // --- 2. Fit hyperparameters and condition the two GPs. ------------------
  telemetry::ScopedTimer fit_timer(
      reg != nullptr ? &reg->histogram("mbo.gp_fit_seconds") : nullptr);
  // Hyperparameter-fit cadence.  Every 5th propose_batch runs the full
  // multi-restart marginal-likelihood search; the fits in between are
  // warm-started from the previous optimum (a short local polish, an order
  // of magnitude fewer LML evaluations).  The optimum drifts slowly as
  // observations accumulate, so the polish tracks it; the periodic full
  // search bounds any drift.
  constexpr std::size_t kHyperoptRefreshPeriod = 5;
  const bool full_search = hyperopt_fits_ % kHyperoptRefreshPeriod == 0 ||
                           !warm_fit1_.has_value() || !warm_fit2_.has_value();
  ++hyperopt_fits_;
  // Both GPs' restarts run as one parallel region; the fits and the draws
  // from rng_ equal fitting GP 1 and then GP 2.
  const gp::HyperoptProblem problems[] = {
      {options_.kernel_family, inputs, z1,
       full_search ? nullptr : &*warm_fit1_},
      {options_.kernel_family, inputs, z2,
       full_search ? nullptr : &*warm_fit2_}};
  const std::vector<gp::HyperoptResult> fits =
      gp::fit_hyperparameters(problems, rng_, options_.hyperopt, pool_);
  const gp::HyperoptResult& h1 = fits[0];
  const gp::HyperoptResult& h2 = fits[1];
  warm_fit1_ = h1;
  warm_fit2_ = h2;
  gp::GaussianProcess gp1(h1.kernel, h1.noise_variance);
  gp::GaussianProcess gp2(h2.kernel, h2.noise_variance);
  gp1.set_full_refit(options_.full_refit);
  gp2.set_full_refit(options_.full_refit);
  gp1.set_parallel_pool(pool_);
  gp2.set_parallel_pool(pool_);
  gp1.condition(inputs, z1);
  gp2.condition(inputs, z2);
  fit_timer.stop();

  // --- 3. Working front and reference in standardized space. --------------
  const pareto::Point2 raw_ref = reference();
  const pareto::Point2 ref{s1.forward(transform(raw_ref.f1)),
                           s2.forward(transform(raw_ref.f2))};
  std::vector<pareto::Point2> front;
  front.reserve(observations_.size());
  for (std::size_t i = 0; i < observations_.size(); ++i) {
    front.push_back({z1[i], z2[i]});
  }
  front = pareto::pareto_front(std::move(front));

  // --- 4. Sequential-greedy (Kriging believer) selection. -----------------
  const bool thompson =
      options_.acquisition == AcquisitionKind::kThompsonMarginal;
  const EhviMode ehvi_mode =
      options_.exact_ehvi ? EhviMode::kExact : EhviMode::kFast;
  std::vector<bool> taken = observed_;
  std::vector<std::size_t> batch;
  last_best_ehvi_.reset();
  const std::size_t num_candidates = candidates_.size();
  std::vector<double> values(num_candidates);
  std::vector<double> uncertainties(num_candidates);
  std::vector<GaussianPair> beliefs(num_candidates);
  std::vector<double> thompson_draws;  // two pre-split normals per candidate
  // Cached cross-covariance rows, one per scorable candidate and GP:
  // kstar1[c][i] = k1(candidates_[c], X_i) over the (growing) training set.
  // Built once on the first pick, then extended by one entry per fantasized
  // observation — the per-pick cost drops from O(m * n) kernel evaluations
  // to one m-point kernel row per GP.
  std::vector<linalg::Vector> kstar1;
  std::vector<linalg::Vector> kstar2;
  // Candidates still scorable this pick; each scoring pass evaluates the
  // acquisition (EHVI or sampled HVI) once per such candidate.
  std::size_t scorable =
      num_candidates - static_cast<std::size_t>(std::count(
                           taken.begin(), taken.end(), true));
  std::uint64_t acquisition_evaluations = 0;
  for (std::size_t pick = 0; pick < batch_size; ++pick) {
    if (thompson) {
      // All shared-RNG draws happen here, serially, in candidate order —
      // the exact sequence of the serial scoring loop — so pool size never
      // changes which candidates get picked.
      thompson_draws.assign(2 * num_candidates, 0.0);
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (!taken[c]) {
          thompson_draws[2 * c] = rng_.normal();
          thompson_draws[2 * c + 1] = rng_.normal();
        }
      }
    }
    // Compile the frozen working front once per pick: the prune/sort/strip
    // preprocessing moves out of the per-candidate loop, and every scoring
    // path below — EHVI, Thompson HVI, serial or blocked — reads the same
    // compiled geometry, so all paths agree bit-for-bit.
    const CompiledFront compiled(front, ref, ehvi_mode);
    // Per-candidate acquisition against the frozen working front.
    auto score_candidate = [&](std::size_t c, const gp::Prediction& p1,
                               const gp::Prediction& p2) {
      const GaussianPair belief{p1.mean, p1.stddev(), p2.mean, p2.stddev()};
      double value = 0.0;
      if (thompson) {
        // One marginal posterior draw per objective; the acquisition value
        // is the deterministic HVI of the sampled point.
        const pareto::Point2 sample{
            belief.mu1 + belief.sigma1 * thompson_draws[2 * c],
            belief.mu2 + belief.sigma2 * thompson_draws[2 * c + 1]};
        value = compiled.hvi(sample);
      } else {
        value = compiled.ehvi(belief);
      }
      beliefs[c] = belief;
      values[c] = value;
      uncertainties[c] = p1.variance + p2.variance;
    };
    if (options_.full_refit) {
      // Reference path: per-candidate kernel evaluations and solves, just
      // as embarrassingly parallel as before.
      runtime::parallel_for_each(pool_, num_candidates, [&](std::size_t c) {
        if (taken[c]) {
          return;
        }
        score_candidate(c, gp1.predict(candidates_[c]),
                        gp2.predict(candidates_[c]));
      });
    } else {
      // Incremental path: extend the cached cross-covariance rows, then
      // score candidates in fixed-size blocks, each block's posterior
      // variances coming from one multi-RHS triangular solve.  The block
      // partition depends only on `taken`, and every write lands in a
      // per-candidate slot, so batches stay bit-identical for any pool
      // size (including no pool).
      if (kstar1.empty()) {
        // One kernel row per candidate and GP over the whole training set,
        // written into a row with room for the batch's fantasized points.
        // The rows are allocated here, on the calling thread, and only
        // filled on the pool: rows allocated on the workers spread over
        // their malloc arenas and raised peak RSS on a loaded host.
        kstar1.resize(num_candidates);
        kstar2.resize(num_candidates);
        const std::size_t n0 = gp1.num_observations();
        std::vector<const double*> train(n0);
        for (std::size_t i = 0; i < n0; ++i) {
          train[i] = gp1.inputs()[i].data();
        }
        for (std::size_t c = 0; c < num_candidates; ++c) {
          if (!taken[c]) {
            kstar1[c].reserve(n0 + batch_size);
            kstar2[c].reserve(n0 + batch_size);
            kstar1[c].resize(n0);
            kstar2[c].resize(n0);
          }
        }
        runtime::parallel_for_each(pool_, num_candidates, [&](std::size_t c) {
          if (taken[c]) {
            return;
          }
          gp1.kernel().cross(candidates_[c].data(), train.data(), n0,
                             kstar1[c].data());
          gp2.kernel().cross(candidates_[c].data(), train.data(), n0,
                             kstar2[c].data());
        });
      } else {
        // One new training point since last pick: one kernel row from it
        // over all candidates per GP, one entry appended to each scorable
        // candidate's row.  Entry c equals k(candidates_[c], x_new) bit for
        // bit: row entries do not depend on their position, and the kernel
        // is symmetric because (a - b)^2 == (b - a)^2 exactly.
        const linalg::Vector& x_new = gp1.inputs().back();
        const linalg::Vector new1 = gp1.kernel().cross(x_new, candidates_);
        const linalg::Vector new2 = gp2.kernel().cross(x_new, candidates_);
        for (std::size_t c = 0; c < num_candidates; ++c) {
          if (!taken[c]) {
            kstar1[c].push_back(new1[c]);
            kstar2[c].push_back(new2[c]);
          }
        }
      }
      std::vector<std::size_t> block_indices;
      block_indices.reserve(scorable);
      for (std::size_t c = 0; c < num_candidates; ++c) {
        if (!taken[c]) {
          block_indices.push_back(c);
        }
      }
      constexpr std::size_t kBlock = 128;
      const std::size_t num_blocks =
          (block_indices.size() + kBlock - 1) / kBlock;
      runtime::parallel_for_each(pool_, num_blocks, [&](std::size_t blk) {
        const std::size_t begin = blk * kBlock;
        const std::size_t count =
            std::min(kBlock, block_indices.size() - begin);
        std::vector<gp::Prediction> p1(count);
        std::vector<gp::Prediction> p2(count);
        gp1.predict_block(kstar1, block_indices.data() + begin, count,
                          p1.data());
        gp2.predict_block(kstar2, block_indices.data() + begin, count,
                          p2.data());
        if (thompson) {
          for (std::size_t j = 0; j < count; ++j) {
            score_candidate(block_indices[begin + j], p1[j], p2[j]);
          }
        } else {
          // Whole-block EHVI: one batched pdf/cdf pass scores the block.
          // ehvi_block is elementwise — identical bits to per-candidate
          // compiled.ehvi() calls, so serial and blocked paths agree.
          std::vector<GaussianPair> blk_beliefs(count);
          std::vector<double> blk_values(count);
          for (std::size_t j = 0; j < count; ++j) {
            blk_beliefs[j] = {p1[j].mean, p1[j].stddev(), p2[j].mean,
                              p2[j].stddev()};
          }
          compiled.ehvi_block(blk_beliefs.data(), count, blk_values.data());
          for (std::size_t j = 0; j < count; ++j) {
            const std::size_t c = block_indices[begin + j];
            beliefs[c] = blk_beliefs[j];
            values[c] = blk_values[j];
            uncertainties[c] = p1[j].variance + p2[j].variance;
          }
        }
      });
    }
    // Serial argmax in candidate order reproduces the serial loop exactly.
    double best_value = -1.0;
    double best_uncertainty = -1.0;
    std::size_t best_index = num_candidates;
    GaussianPair best_belief;
    for (std::size_t c = 0; c < num_candidates; ++c) {
      if (taken[c]) {
        continue;
      }
      // Primary criterion: EHVI.  Tie-break (all-zero EHVI happens once the
      // front looks converged): keep exploring where the model is least sure.
      const bool better =
          values[c] > best_value ||
          (values[c] == best_value && uncertainties[c] > best_uncertainty);
      if (better) {
        best_value = values[c];
        best_uncertainty = uncertainties[c];
        best_index = c;
        best_belief = beliefs[c];
      }
    }
    acquisition_evaluations += scorable;
    if (best_index == candidates_.size()) {
      break;  // every candidate observed or taken
    }
    --scorable;
    if (pick == 0) {
      last_best_ehvi_ = best_value;
    }
    batch.push_back(best_index);
    taken[best_index] = true;
    // Fantasize the observation at the posterior mean and re-condition.
    gp1.add_observation(candidates_[best_index], best_belief.mu1);
    gp2.add_observation(candidates_[best_index], best_belief.mu2);
    std::vector<pareto::Point2> updated = std::move(front);
    updated.push_back({best_belief.mu1, best_belief.mu2});
    front = pareto::pareto_front(std::move(updated));
  }
  if (reg != nullptr) {
    reg->counter(thompson ? "mbo.thompson_evaluations"
                          : "mbo.ehvi_evaluations")
        .add(acquisition_evaluations);
    reg->histogram("mbo.batch_size",
                   telemetry::exponential_buckets(1.0, 2.0, 8))
        .observe(static_cast<double>(batch.size()));
  }
  return batch;
}

}  // namespace bofl::bo
