// Golden-trace regression for the kernel dispatch override: under a forced
// scalar level (the same effect as BOFL_SIMD=scalar) the fleet engine must
// reproduce the committed trace hash bit-for-bit, on every machine, at every
// compiled dispatch level.  This is the repo's proof that introducing the
// vectorized kernel layer did not silently change scalar-mode numerics —
// and that `BOFL_SIMD=scalar` is a real escape hatch, not a best-effort one.
//
// If an intentional numeric change lands (new kernel math, different
// accumulation order in the scalar reference), regenerate the constant by
// running this test and copying the printed actual hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>

#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "faults/fleet_scenario.hpp"
#include "faults/scenarios.hpp"
#include "fleet/fleet_engine.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::fleet {
namespace {

/// The small_config fleet from fleet_determinism_test.cpp, run at scalar
/// level: 3000 clients, 6 rounds, two device clusters, seed 11.
constexpr std::uint64_t kGoldenScalarTraceHash = 0xf377e83667a5a709ULL;
/// The same fleet under the two reference policies (paper §6.1).  Their
/// canonical trajectories involve no GP numerics, so one constant each
/// holds at every dispatch level.
constexpr std::uint64_t kGoldenOracleTraceHash = 0x3854cd9f574a626aULL;
constexpr std::uint64_t kGoldenPerformantTraceHash = 0x2d1037051236c42dULL;
/// The same fleet under the straggler-heavy fault scenario with a 1.2x
/// straggler cutoff, so some reports time out and their clients' replay
/// cursors roll back: the only round-close path whose output depends on
/// the order of the timed-out events.
constexpr std::uint64_t kGoldenStragglerTimeoutTraceHash = 0xd545d5fe85439112ULL;
/// The same fleet under the churn population scenario: re-joins that lose
/// their state restart their replay cursor while each client's speed factor
/// (its silicon) survives the reset.
constexpr std::uint64_t kGoldenChurnTraceHash = 0x1342350b1c9a809aULL;
/// The same fleet under the battery-budget population scenario: every
/// participation drains training plus MBO energy from the client's budget,
/// so clients re-selected too soon sit the round out.
constexpr std::uint64_t kGoldenBatteryTraceHash = 0xe441951ac7b3688dULL;
/// The same fleet under the diurnal population scenario: the round's cohort
/// fraction (the selection threshold) and deadline factor follow the
/// day/night wave, so each round draws its cohort against a different
/// threshold.
constexpr std::uint64_t kGoldenDiurnalTraceHash = 0x422914f7972f8301ULL;

/// Pins the dispatch level for the test body and restores the ambient level
/// on exit, so ordering against other tests in this binary doesn't matter.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(linalg::simd::Level level)
      : previous_(linalg::simd::active_level()) {
    linalg::simd::force_level(level);
  }
  ~ScopedSimdLevel() { linalg::simd::force_level(previous_); }

 private:
  linalg::simd::Level previous_;
};

FleetResult run_small_fleet(
    core::ControllerKind controller = core::ControllerKind::kBofl,
    std::optional<faults::FaultPlan> fault_plan = std::nullopt,
    double straggler_timeout = 0.0,
    std::optional<faults::FleetScenario> scenario = std::nullopt) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FleetConfig config;
  config.num_clients = 3000;
  config.rounds = 6;
  config.cohort_fraction = 0.05;
  config.seed = 11;
  config.clusters.push_back({&agx, device::vit_profile(), 0.7});
  config.clusters.push_back({&tx2, device::lstm_profile(), 0.3});
  config.shards = 4;
  config.threads = 4;
  config.controller = controller;
  config.fault_plan = std::move(fault_plan);
  config.straggler_timeout = straggler_timeout;
  config.scenario = std::move(scenario);
  FleetEngine engine(std::move(config));
  return engine.run();
}

TEST(FleetGoldenHash, ScalarLevelReproducesCommittedTraceHash) {
  ScopedSimdLevel scalar(linalg::simd::Level::kScalar);
  const FleetResult result = run_small_fleet();
  EXPECT_EQ(result.trace_hash, kGoldenScalarTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, NativeLevelMatchesScalarTrace) {
  // The trace is built from integer round fields; the float kernels feed it
  // only through tolerance-insensitive decisions.  Both dispatch levels must
  // therefore land on the same committed trace for this config — a drift
  // here means an AVX2 kernel crossed a decision boundary the scalar path
  // does not.
  const FleetResult result = run_small_fleet();
  EXPECT_EQ(result.trace_hash, kGoldenScalarTraceHash)
      << "active level "
      << linalg::simd::to_string(linalg::simd::active_level())
      << ", actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, OracleReproducesCommittedTraceHash) {
  const FleetResult result = run_small_fleet(core::ControllerKind::kOracle);
  EXPECT_EQ(result.trace_hash, kGoldenOracleTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, PerformantReproducesCommittedTraceHash) {
  const FleetResult result =
      run_small_fleet(core::ControllerKind::kPerformant);
  EXPECT_EQ(result.trace_hash, kGoldenPerformantTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, PassLedgerSumsToDataPlaneTimeAndLeavesHashUnchanged) {
  const FleetResult result = run_small_fleet();
  EXPECT_EQ(result.trace_hash, kGoldenScalarTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
  for (const double ms : {result.select_ms, result.cost_ms, result.close_ms,
                          result.merge_ms, result.control_plane_ms}) {
    EXPECT_GE(ms, 0.0);
  }
  EXPECT_GT(result.data_plane_ms, 0.0);
  const double sum =
      result.select_ms + result.cost_ms + result.close_ms + result.merge_ms;
  EXPECT_NEAR(sum, result.data_plane_ms, 1e-9 * result.data_plane_ms);
}

TEST(FleetGoldenHash, StragglerTimeoutReproducesCommittedTraceHash) {
  const FleetResult result = run_small_fleet(
      core::ControllerKind::kBofl,
      faults::make_scenario("straggler-heavy", 11, 100.0),
      /*straggler_timeout=*/1.2);
  bool any_timed_out = false;
  for (const FleetRoundStats& round : result.rounds) {
    any_timed_out = any_timed_out || round.timed_out > 0;
  }
  EXPECT_TRUE(any_timed_out) << "no report timed out: the cursor rollback "
                                "path did not run";
  EXPECT_EQ(result.trace_hash, kGoldenStragglerTimeoutTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, ChurnScenarioReproducesCommittedTraceHash) {
  const FleetResult result =
      run_small_fleet(core::ControllerKind::kBofl, std::nullopt, 0.0,
                      faults::make_fleet_scenario("churn", 11));
  EXPECT_GT(result.total_resets(), 0u)
      << "no re-join lost its state: the reset path did not run";
  EXPECT_EQ(result.trace_hash, kGoldenChurnTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, BatteryBudgetReproducesCommittedTraceHash) {
  const FleetResult result =
      run_small_fleet(core::ControllerKind::kBofl, std::nullopt, 0.0,
                      faults::make_fleet_scenario("battery-budget", 11));
  EXPECT_GT(result.total_battery_blocked(), 0u)
      << "no client was held back: the battery drain did not bind";
  EXPECT_EQ(result.trace_hash, kGoldenBatteryTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

TEST(FleetGoldenHash, DiurnalScenarioReproducesCommittedTraceHash) {
  const FleetResult result =
      run_small_fleet(core::ControllerKind::kBofl, std::nullopt, 0.0,
                      faults::make_fleet_scenario("diurnal", 11));
  std::uint32_t smallest = result.rounds.front().participants;
  std::uint32_t largest = smallest;
  for (const FleetRoundStats& round : result.rounds) {
    smallest = std::min(smallest, round.participants);
    largest = std::max(largest, round.participants);
  }
  EXPECT_LT(smallest, largest)
      << "every round drew the same cohort size: the diurnal threshold did "
         "not move";
  EXPECT_EQ(result.trace_hash, kGoldenDiurnalTraceHash)
      << "actual hash 0x" << std::hex << result.trace_hash;
}

}  // namespace
}  // namespace bofl::fleet
