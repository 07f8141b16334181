// Cross-module integration: the full paper pipeline on a reduced scale.
// One test walks the exact §6 protocol (three controllers, sampled
// deadlines, per-round comparison); another couples the sysfs actuation
// path with the controller decisions.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "core/oracle_controller.hpp"
#include "core/performant_controller.hpp"
#include "device/sysfs.hpp"
#include "fl/simulation.hpp"

namespace bofl {
namespace {

TEST(EndToEnd, PaperProtocolOrderingHolds) {
  // Over a full (shortened) task: Oracle <= BoFL < Performant in energy,
  // everyone meets every deadline, and BoFL's regret is bounded.
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  core::FlTaskSpec shortened = task;
  shortened.num_rounds = 50;
  const auto rounds = core::make_rounds(shortened, agx, 2.0, 1234);

  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(agx.name());
  options.mbo.hyperopt.num_restarts = 2;
  options.mbo.hyperopt.max_iterations_per_start = 80;
  core::BoflController bofl(agx, task.profile, {}, options, 55);
  core::PerformantController performant(agx, task.profile, {}, 56);
  core::OracleController oracle(agx, task.profile, {}, 57);

  const core::TaskResult rb = core::run_task(bofl, rounds);
  const core::TaskResult rp = core::run_task(performant, rounds);
  const core::TaskResult ro = core::run_task(oracle, rounds);

  EXPECT_TRUE(rb.all_deadlines_met());
  EXPECT_TRUE(rp.all_deadlines_met());
  EXPECT_TRUE(ro.all_deadlines_met());

  const double e_bofl = core::total_energy(rb).value();
  const double e_perf = core::total_energy(rp).value();
  const double e_oracle = core::total_energy(ro).value();
  EXPECT_LT(e_oracle, e_bofl);
  EXPECT_LT(e_bofl, e_perf);
  // Paper headline bands, loosened for the short run: >= 12 % improvement,
  // <= 12 % regret.
  EXPECT_GT(core::improvement_vs(rb, rp), 0.12);
  EXPECT_LT(core::regret_vs(rb, ro), 0.12);
}

TEST(EndToEnd, ControllerDecisionsActuateThroughSysfs) {
  // Replay a BoFL trace through the sysfs controller and verify that the
  // kernel-facing files reflect every configuration the controller chose.
  const device::DeviceModel agx = device::jetson_agx();
  const core::FlTaskSpec task = core::imdb_lstm_task(agx.name());
  core::FlTaskSpec shortened = task;
  shortened.num_rounds = 6;
  const auto rounds = core::make_rounds(shortened, agx, 2.5, 99);

  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(agx.name());
  options.mbo.hyperopt.num_restarts = 1;
  options.mbo.hyperopt.max_iterations_per_start = 60;
  core::BoflController bofl(agx, task.profile, {}, options, 77);

  device::SysfsDvfsController sysfs(agx.space());
  for (const core::RoundSpec& spec : rounds) {
    const core::RoundTrace trace = bofl.run_round(spec);
    for (const core::ConfigRun& run : trace.runs) {
      sysfs.apply(run.config);
      // cpufreq files hold kHz, devfreq files Hz.
      const device::SysfsTree& files = sysfs.tree();
      EXPECT_DOUBLE_EQ(
          std::stod(files.read(device::SysfsDvfsController::kCpuCurPath)),
          std::round(agx.space().cpu_freq(run.config).value() * 1e6));
      EXPECT_DOUBLE_EQ(
          std::stod(files.read(device::SysfsDvfsController::kGpuCurPath)),
          std::round(agx.space().gpu_freq(run.config).value() * 1e9));
      EXPECT_DOUBLE_EQ(
          std::stod(files.read(device::SysfsDvfsController::kMemCurPath)),
          std::round(agx.space().mem_freq(run.config).value() * 1e9));
    }
  }
}

TEST(EndToEnd, FleetSimulationSavesEnergyWithoutHurtingAccuracy) {
  const device::DeviceModel agx = device::jetson_agx();
  fl::FlSimulationConfig base;
  base.num_clients = 6;
  base.clients_per_round = 3;
  base.rounds = 30;
  base.epochs = 2;
  base.minibatch_size = 8;
  base.shard_examples = 512;
  base.deadline_ratio = 3.0;
  base.seed = 777;

  fl::FlSimulationConfig bofl_config = base;
  bofl_config.controller = core::ControllerKind::kBofl;
  fl::FlSimulationConfig perf_config = base;
  perf_config.controller = core::ControllerKind::kPerformant;

  fl::FederatedSimulation bofl_sim(agx, bofl_config);
  fl::FederatedSimulation perf_sim(agx, perf_config);
  const fl::FlSimulationResult bofl = bofl_sim.run();
  const fl::FlSimulationResult perf = perf_sim.run();

  EXPECT_LT(bofl.total_energy().value(), perf.total_energy().value());
  // Same seeds, same aggregation stream -> learning quality must match.
  EXPECT_NEAR(bofl.final_accuracy(), perf.final_accuracy(), 1e-12);
}

}  // namespace
}  // namespace bofl
