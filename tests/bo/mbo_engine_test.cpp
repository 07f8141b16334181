#include "bo/mbo_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "pareto/hypervolume.hpp"

namespace bofl::bo {
namespace {

/// A synthetic conflicting two-objective problem on a 2-D grid:
/// f1 favours the lower-left corner, f2 the upper-right; the Pareto set is
/// the diagonal band between them.
struct SyntheticProblem {
  std::vector<linalg::Vector> candidates;
  std::vector<pareto::Point2> values;

  explicit SyntheticProblem(std::size_t grid = 15) {
    for (std::size_t i = 0; i < grid; ++i) {
      for (std::size_t j = 0; j < grid; ++j) {
        const double x = static_cast<double>(i) / (grid - 1);
        const double y = static_cast<double>(j) / (grid - 1);
        candidates.push_back({x, y});
        const double f1 = 0.2 + (x - 0.1) * (x - 0.1) + 0.5 * y * y;
        const double f2 = 0.2 + (1.0 - x) * (1.0 - x) * 0.6 +
                          (1.0 - y) * (1.0 - y) * 0.4;
        values.push_back({f1, f2});
      }
    }
  }
};

MboEngine make_engine(const SyntheticProblem& problem,
                      std::size_t initial_observations,
                      std::uint64_t seed = 11) {
  MboOptions options;
  options.hyperopt.num_restarts = 2;
  options.hyperopt.max_iterations_per_start = 80;
  MboEngine engine(problem.candidates, options, seed);
  Rng rng(seed * 31);
  for (std::size_t i = 0; i < initial_observations; ++i) {
    const std::size_t c = rng.uniform_index(problem.candidates.size());
    engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
  }
  return engine;
}

TEST(MboEngine, RequiresCandidates) {
  EXPECT_THROW(MboEngine({}, {}, 1), std::invalid_argument);
}

TEST(MboEngine, RejectsOutOfRangeObservation) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  EXPECT_THROW(engine.add_observation({problem.candidates.size(), 1.0, 1.0}),
               std::invalid_argument);
}

TEST(MboEngine, LogTransformRequiresPositiveObjectives) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  EXPECT_THROW(engine.add_observation({0, -1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(engine.add_observation({0, 1.0, 0.0}), std::invalid_argument);
}

TEST(MboEngine, DefaultReferenceIsComponentWiseWorst) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  engine.add_observation({0, 2.0, 3.0});
  engine.add_observation({1, 4.0, 1.0});
  const pareto::Point2 ref = engine.reference();
  EXPECT_DOUBLE_EQ(ref.f1, 4.0);
  EXPECT_DOUBLE_EQ(ref.f2, 3.0);
}

TEST(MboEngine, ExplicitReferenceWins) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  engine.add_observation({0, 2.0, 3.0});
  engine.set_reference({9.0, 9.0});
  EXPECT_DOUBLE_EQ(engine.reference().f1, 9.0);
}

TEST(MboEngine, ProposeNeedsThreeObservations) {
  SyntheticProblem problem;
  MboEngine engine = make_engine(problem, 2);
  EXPECT_THROW((void)engine.propose_batch(3), std::invalid_argument);
}

TEST(MboEngine, BatchIsDistinctAndUnobserved) {
  SyntheticProblem problem;
  MboEngine engine = make_engine(problem, 8);
  const auto batch = engine.propose_batch(5);
  ASSERT_EQ(batch.size(), 5u);
  std::set<std::size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 5u);
  for (std::size_t c : batch) {
    EXPECT_FALSE(engine.is_observed(c));
  }
}

TEST(MboEngine, BatchRespectsCap) {
  SyntheticProblem problem;
  MboOptions options;
  options.max_batch_size = 3;
  options.hyperopt.num_restarts = 1;
  options.hyperopt.max_iterations_per_start = 50;
  MboEngine engine(problem.candidates, options, 5);
  Rng rng(6);
  for (int i = 0; i < 6; ++i) {
    const std::size_t c = rng.uniform_index(problem.candidates.size());
    engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
  }
  EXPECT_LE(engine.propose_batch(10).size(), 3u);
}

TEST(MboEngine, ObservedFrontAndHypervolume) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  engine.add_observation({0, 2.0, 3.0});
  engine.add_observation({1, 1.0, 4.0});
  engine.add_observation({2, 3.0, 1.0});
  engine.set_reference({5.0, 5.0});
  const auto front = engine.observed_front();
  EXPECT_EQ(front.size(), 3u);  // mutually non-dominated
  EXPECT_GT(engine.observed_hypervolume(), 0.0);
}

TEST(MboEngine, RandomAcquisitionReturnsUnobservedDistinct) {
  SyntheticProblem problem;
  MboOptions options;
  options.acquisition = AcquisitionKind::kRandomUnobserved;
  MboEngine engine(problem.candidates, options, 3);
  Rng rng(4);
  for (int i = 0; i < 5; ++i) {
    const std::size_t c = rng.uniform_index(problem.candidates.size());
    engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
  }
  const auto batch = engine.propose_batch(6);
  ASSERT_EQ(batch.size(), 6u);
  std::set<std::size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 6u);
  for (std::size_t c : batch) {
    EXPECT_FALSE(engine.is_observed(c));
  }
  // The random strategy must not report an EHVI value.
  EXPECT_FALSE(engine.last_best_ehvi().has_value());
}

TEST(MboEngine, ThompsonAcquisitionProposesValidBatches) {
  SyntheticProblem problem;
  MboOptions options;
  options.acquisition = AcquisitionKind::kThompsonMarginal;
  options.hyperopt.num_restarts = 1;
  options.hyperopt.max_iterations_per_start = 60;
  MboEngine engine(problem.candidates, options, 21);
  Rng rng(22);
  for (int i = 0; i < 8; ++i) {
    const std::size_t c = rng.uniform_index(problem.candidates.size());
    engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
  }
  const auto batch = engine.propose_batch(5);
  ASSERT_EQ(batch.size(), 5u);
  std::set<std::size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 5u);
  for (std::size_t c : batch) {
    EXPECT_FALSE(engine.is_observed(c));
  }
}

TEST(MboEngine, ThompsonEventuallyFindsTheFront) {
  // Thompson draws are randomized; over a modest budget the observed
  // hypervolume must still climb toward the EHVI level.
  SyntheticProblem problem;
  const pareto::Point2 ref{2.0, 2.0};
  MboOptions options;
  options.acquisition = AcquisitionKind::kThompsonMarginal;
  options.hyperopt.num_restarts = 1;
  options.hyperopt.max_iterations_per_start = 60;
  MboEngine engine(problem.candidates, options, 23);
  Rng rng(24);
  for (int i = 0; i < 8; ++i) {
    const std::size_t c = rng.uniform_index(problem.candidates.size());
    engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
  }
  engine.set_reference(ref);
  const double before = engine.observed_hypervolume();
  for (int round = 0; round < 5; ++round) {
    for (std::size_t c : engine.propose_batch(5)) {
      engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
    }
  }
  EXPECT_GT(engine.observed_hypervolume(), before);
}

TEST(MboEngine, LastBestEhviIsPopulated) {
  SyntheticProblem problem;
  MboEngine engine = make_engine(problem, 8);
  EXPECT_FALSE(engine.last_best_ehvi().has_value());
  (void)engine.propose_batch(2);
  ASSERT_TRUE(engine.last_best_ehvi().has_value());
  EXPECT_GE(*engine.last_best_ehvi(), 0.0);
}

// The headline behaviour: MBO-guided exploration reaches a higher
// hypervolume than uniform random exploration with the same budget.
TEST(MboEngine, BeatsRandomSearchOnHypervolume) {
  SyntheticProblem problem;
  const pareto::Point2 ref{2.0, 2.0};
  const std::size_t kInitial = 8;
  const std::size_t kBudget = 20;

  double mbo_hv = 0.0;
  double random_hv = 0.0;
  int mbo_wins = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // MBO run.
    MboEngine engine = make_engine(problem, kInitial, seed);
    engine.set_reference(ref);
    std::size_t spent = 0;
    while (spent < kBudget) {
      const auto batch =
          engine.propose_batch(std::min<std::size_t>(5, kBudget - spent));
      ASSERT_FALSE(batch.empty());
      for (std::size_t c : batch) {
        engine.add_observation({c, problem.values[c].f1,
                                problem.values[c].f2});
      }
      spent += batch.size();
    }
    mbo_hv = engine.observed_hypervolume();

    // Random run with identical budget.
    Rng rng(seed * 31);  // same initial points as make_engine
    std::vector<pareto::Point2> seen;
    for (std::size_t i = 0; i < kInitial + kBudget; ++i) {
      const std::size_t c = rng.uniform_index(problem.candidates.size());
      seen.push_back(problem.values[c]);
    }
    random_hv = pareto::hypervolume_2d(seen, ref);
    if (mbo_hv >= random_hv) {
      ++mbo_wins;
    }
  }
  EXPECT_GE(mbo_wins, 2) << "last mbo=" << mbo_hv
                         << " random=" << random_hv;
}

TEST(MboEngine, ParallelScoringMatchesSerialBatches) {
  // Candidate scoring on a pool must pick the exact batch the serial loop
  // picks — for both the deterministic (EHVI) and the sampling (Thompson)
  // acquisitions, and for every pool size (the --threads invariance the
  // blocked scoring path promises).
  SyntheticProblem problem;
  for (const AcquisitionKind kind :
       {AcquisitionKind::kEhvi, AcquisitionKind::kThompsonMarginal}) {
    SCOPED_TRACE(kind == AcquisitionKind::kEhvi ? "ehvi" : "thompson");
    MboOptions options;
    options.acquisition = kind;
    options.hyperopt.num_restarts = 2;
    options.hyperopt.max_iterations_per_start = 80;
    auto propose = [&](runtime::ThreadPool* pool) {
      MboEngine engine(problem.candidates, options, 11);
      if (pool != nullptr) {
        engine.set_parallel_pool(pool);
      }
      Rng rng(11 * 31);
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t c = rng.uniform_index(problem.candidates.size());
        engine.add_observation(
            {c, problem.values[c].f1, problem.values[c].f2});
      }
      return engine.propose_batch(6);
    };
    const std::vector<std::size_t> serial = propose(nullptr);
    for (const std::size_t threads : {2u, 4u, 7u}) {
      SCOPED_TRACE(threads);
      runtime::ThreadPool pool(threads);
      EXPECT_EQ(serial, propose(&pool));
    }
  }
}

TEST(MboEngine, FullRefitEscapeHatchProposesEquivalentBatches) {
  // The incremental algebra (rank-1 Cholesky updates, cached
  // cross-covariances, blocked solves) only reorders floating-point work:
  // against the reference full-refit path it must pick the same
  // candidates.
  SyntheticProblem problem;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    SCOPED_TRACE(seed);
    MboOptions incremental_options;
    incremental_options.hyperopt.num_restarts = 2;
    incremental_options.hyperopt.max_iterations_per_start = 80;
    MboOptions reference_options = incremental_options;
    reference_options.full_refit = true;
    MboEngine incremental(problem.candidates, incremental_options, seed);
    MboEngine reference(problem.candidates, reference_options, seed);
    Rng rng(seed * 31);
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t c = rng.uniform_index(problem.candidates.size());
      incremental.add_observation(
          {c, problem.values[c].f1, problem.values[c].f2});
      reference.add_observation(
          {c, problem.values[c].f1, problem.values[c].f2});
    }
    EXPECT_EQ(incremental.propose_batch(5), reference.propose_batch(5));
  }
}

TEST(MboEngine, WarmStartedRoundsStayDeterministicAcrossPools) {
  // Rounds after the first use warm-started hyperparameter fits (see
  // MboOptions::hyperopt_refresh_period).  A full observe/propose cycle
  // repeated over several rounds must still pick identical batches for
  // every pool size, and the full-refit escape hatch must keep agreeing
  // with the incremental algebra on those warm rounds too.
  SyntheticProblem problem;
  MboOptions options;
  options.hyperopt.num_restarts = 2;
  options.hyperopt.max_iterations_per_start = 80;
  auto run_rounds = [&](const MboOptions& opts, runtime::ThreadPool* pool) {
    MboEngine engine(problem.candidates, opts, 17);
    if (pool != nullptr) {
      engine.set_parallel_pool(pool);
    }
    Rng rng(17 * 31);
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t c = rng.uniform_index(problem.candidates.size());
      engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
    }
    std::vector<std::size_t> trace;
    for (int round = 0; round < 3; ++round) {
      const std::vector<std::size_t> batch = engine.propose_batch(4);
      trace.insert(trace.end(), batch.begin(), batch.end());
      for (const std::size_t c : batch) {
        engine.add_observation(
            {c, problem.values[c].f1, problem.values[c].f2});
      }
    }
    return trace;
  };
  const std::vector<std::size_t> serial = run_rounds(options, nullptr);
  for (const std::size_t threads : {2u, 5u}) {
    SCOPED_TRACE(threads);
    runtime::ThreadPool pool(threads);
    EXPECT_EQ(serial, run_rounds(options, &pool));
  }
  MboOptions reference = options;
  reference.full_refit = true;
  EXPECT_EQ(serial, run_rounds(reference, nullptr));
}

TEST(MboEngine, RefreshPeriodZeroAlwaysRunsFullSearch) {
  // hyperopt_refresh_period = 0 disables warm starts entirely: every round
  // re-runs the multi-restart search.  With the RNG consumption that
  // implies, the engine must still produce valid, deterministic batches.
  SyntheticProblem problem;
  MboOptions options;
  options.hyperopt_refresh_period = 0;
  options.hyperopt.num_restarts = 2;
  options.hyperopt.max_iterations_per_start = 80;
  auto run_rounds = [&]() {
    MboEngine engine(problem.candidates, options, 23);
    Rng rng(23 * 31);
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t c = rng.uniform_index(problem.candidates.size());
      engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
    }
    std::vector<std::size_t> trace;
    for (int round = 0; round < 2; ++round) {
      const std::vector<std::size_t> batch = engine.propose_batch(3);
      trace.insert(trace.end(), batch.begin(), batch.end());
      for (const std::size_t c : batch) {
        engine.add_observation(
            {c, problem.values[c].f1, problem.values[c].f2});
      }
    }
    return trace;
  };
  const std::vector<std::size_t> a = run_rounds();
  const std::vector<std::size_t> b = run_rounds();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(MboEngine, ExactEhviEscapeHatchPicksTheSameBatches) {
  // The default acquisition scores candidates with the fast polynomial
  // normal kernel; exact_ehvi routes through the libm reference.  The
  // kernel's relative error (~1e-8) is far below the EHVI gaps between
  // distinct grid candidates here, so both modes must select identical
  // batches over several warm rounds.
  SyntheticProblem problem;
  MboOptions fast_options;
  fast_options.hyperopt.num_restarts = 2;
  fast_options.hyperopt.max_iterations_per_start = 80;
  MboOptions exact_options = fast_options;
  exact_options.exact_ehvi = true;
  auto run_rounds = [&](const MboOptions& opts) {
    MboEngine engine(problem.candidates, opts, 13);
    Rng rng(13 * 31);
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t c = rng.uniform_index(problem.candidates.size());
      engine.add_observation({c, problem.values[c].f1, problem.values[c].f2});
    }
    std::vector<std::size_t> trace;
    for (int round = 0; round < 3; ++round) {
      const std::vector<std::size_t> batch = engine.propose_batch(4);
      trace.insert(trace.end(), batch.begin(), batch.end());
      for (const std::size_t c : batch) {
        engine.add_observation(
            {c, problem.values[c].f1, problem.values[c].f2});
      }
    }
    return trace;
  };
  EXPECT_EQ(run_rounds(fast_options), run_rounds(exact_options));
}

TEST(MboEngine, NumObservedCandidatesCountsDistinct) {
  SyntheticProblem problem;
  MboEngine engine(problem.candidates, {}, 1);
  EXPECT_EQ(engine.num_observed_candidates(), 0u);
  engine.add_observation({3, 1.0, 2.0});
  engine.add_observation({3, 1.1, 2.1});  // re-observation of the same cell
  engine.add_observation({7, 1.0, 2.0});
  EXPECT_EQ(engine.num_observed_candidates(), 2u);
  EXPECT_EQ(engine.num_observations(), 3u);
}

}  // namespace
}  // namespace bofl::bo
