// Calibration and shape tests for the simulated testbeds.  These pin the
// behaviours DESIGN.md §5 promises: Table-2 latencies, the Figure 3–5
// qualitative curves, and the headline "8x faster / 4x more efficient"
// spread from the paper's introduction.
#include "device/device_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <ostream>

namespace bofl::device {

// Prints a parameter as its profile name.  Without it gtest byte-dumps the
// struct, whose std::string holds a heap pointer, so the discovered test
// names would change from build to build.
void PrintTo(const WorkloadProfile& profile, std::ostream* os) {
  *os << profile.name;
}

namespace {

class PaperWorkloads : public ::testing::TestWithParam<WorkloadProfile> {};

TEST(DeviceModel, Table2LatencyCalibrationAgx) {
  const DeviceModel agx = jetson_agx();
  const DvfsConfig x_max = agx.space().max_config();
  // T_min/W from Table 2: 37.2/200, 46.9/180, 46.1/160.
  EXPECT_NEAR(agx.latency(vit_profile(), x_max).value(), 0.186, 0.01);
  EXPECT_NEAR(agx.latency(resnet50_profile(), x_max).value(), 0.261, 0.013);
  EXPECT_NEAR(agx.latency(lstm_profile(), x_max).value(), 0.288, 0.015);
}

TEST(DeviceModel, Table2LatencyCalibrationTx2) {
  const DeviceModel tx2 = jetson_tx2();
  const DvfsConfig x_max = tx2.space().max_config();
  // T_min/W from Table 2: 36.0/75, 49.2/60, 55.6/80 — tolerance 10 %.
  EXPECT_NEAR(tx2.latency(vit_profile(), x_max).value(), 0.48, 0.05);
  EXPECT_NEAR(tx2.latency(resnet50_profile(), x_max).value(), 0.82, 0.08);
  EXPECT_NEAR(tx2.latency(lstm_profile(), x_max).value(), 0.70, 0.07);
}

TEST(DeviceModel, RoundTMinScalesWithJobs) {
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile vit = vit_profile();
  const double per_job = agx.latency(vit, agx.space().max_config()).value();
  EXPECT_NEAR(agx.round_t_min(vit, 200).value(), 200 * per_job, 1e-9);
  EXPECT_DOUBLE_EQ(agx.round_t_min(vit, 0).value(), 0.0);
}

TEST_P(PaperWorkloads, LatencyMonotoneInEachFrequencyAxis) {
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile profile = GetParam();
  const DvfsSpace& space = agx.space();
  // Raising any one frequency never slows the job down.
  const DvfsConfig base{5, 5, 2};
  for (std::size_t c = base.cpu + 1; c < space.cpu_table().size(); ++c) {
    EXPECT_LE(agx.latency(profile, {c, base.gpu, base.mem}).value(),
              agx.latency(profile, {c - 1, base.gpu, base.mem}).value() + 1e-12);
  }
  for (std::size_t g = base.gpu + 1; g < space.gpu_table().size(); ++g) {
    EXPECT_LE(agx.latency(profile, {base.cpu, g, base.mem}).value(),
              agx.latency(profile, {base.cpu, g - 1, base.mem}).value() + 1e-12);
  }
  for (std::size_t m = base.mem + 1; m < space.mem_table().size(); ++m) {
    EXPECT_LE(agx.latency(profile, {base.cpu, base.gpu, m}).value(),
              agx.latency(profile, {base.cpu, base.gpu, m - 1}).value() + 1e-12);
  }
}

TEST_P(PaperWorkloads, PowerAndEnergyArePositive) {
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile profile = GetParam();
  const DvfsSpace& space = agx.space();
  for (std::size_t flat = 0; flat < space.size(); flat += 37) {
    const DvfsConfig config = space.from_flat(flat);
    EXPECT_GT(agx.average_power(profile, config).value(),
              agx.spec().idle_power_watts);
    EXPECT_GT(agx.energy(profile, config).value(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, PaperWorkloads,
                         ::testing::ValuesIn(paper_profiles()),
                         [](const auto& info) { return info.param.name; });

TEST(DeviceModel, Figure3GpuSaturationUnderSlowCpu) {
  // Fig. 3(a): with the CPU at its lowest step, raising GPU frequency past
  // ~1 GHz buys almost nothing because the CPU is the bottleneck.
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile vit = vit_profile();
  const DvfsSpace& space = agx.space();
  const std::size_t mem_max = space.mem_table().size() - 1;
  const std::size_t g_mid = space.gpu_table().nearest_index(GigaHertz{1.0});
  const std::size_t g_max = space.gpu_table().size() - 1;
  const double slow_cpu_gain =
      agx.latency(vit, {0, g_mid, mem_max}).value() -
      agx.latency(vit, {0, g_max, mem_max}).value();
  const std::size_t cpu_max = space.cpu_table().size() - 1;
  const double fast_cpu_gain =
      agx.latency(vit, {cpu_max, g_mid, mem_max}).value() -
      agx.latency(vit, {cpu_max, g_max, mem_max}).value();
  // Same GPU-frequency raise helps far more when the CPU is fast.
  EXPECT_GT(fast_cpu_gain, 2.0 * slow_cpu_gain);
}

TEST(DeviceModel, Figure3EnergyCrossover) {
  // Fig. 3(b): at low GPU frequency the slow CPU is more energy-efficient;
  // at max GPU frequency the fast CPU wins.
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile vit = vit_profile();
  const DvfsSpace& space = agx.space();
  const std::size_t mem_max = space.mem_table().size() - 1;
  const std::size_t cpu_max = space.cpu_table().size() - 1;
  const std::size_t g_low = space.gpu_table().nearest_index(GigaHertz{0.7});
  const std::size_t g_max = space.gpu_table().size() - 1;
  EXPECT_LT(agx.energy(vit, {0, g_low, mem_max}).value(),
            agx.energy(vit, {cpu_max, g_low, mem_max}).value());
  EXPECT_GT(agx.energy(vit, {0, g_max, mem_max}).value(),
            agx.energy(vit, {cpu_max, g_max, mem_max}).value());
}

TEST(DeviceModel, Figure4CpuSensitivityIsModelDependent) {
  // Fig. 4(a): from 0.6 to 1.7 GHz CPU, the LSTM roughly halves its
  // latency while ViT/ResNet50 barely move.
  const DeviceModel agx = jetson_agx();
  const DvfsSpace& space = agx.space();
  const DvfsConfig lo{space.cpu_table().nearest_index(GigaHertz{0.6}),
                      space.gpu_table().size() - 1,
                      space.mem_table().size() - 1};
  DvfsConfig hi = lo;
  hi.cpu = space.cpu_table().nearest_index(GigaHertz{1.7});
  const auto speedup = [&](const WorkloadProfile& p) {
    return agx.latency(p, lo).value() / agx.latency(p, hi).value();
  };
  EXPECT_GT(speedup(lstm_profile()), 1.8);
  EXPECT_LT(speedup(vit_profile()), 1.6);
  EXPECT_LT(speedup(resnet50_profile()), 1.3);
}

TEST(DeviceModel, Figure4EnergyTrends) {
  // Fig. 4(b): over 0.7 -> 1.7 GHz CPU, ResNet50's energy rises while
  // LSTM's falls.
  const DeviceModel agx = jetson_agx();
  const DvfsSpace& space = agx.space();
  const std::size_t lo = space.cpu_table().nearest_index(GigaHertz{0.7});
  const std::size_t hi = space.cpu_table().nearest_index(GigaHertz{1.7});
  const DvfsConfig top{0, space.gpu_table().size() - 1,
                       space.mem_table().size() - 1};
  auto energy_at = [&](const WorkloadProfile& p, std::size_t cpu) {
    DvfsConfig c = top;
    c.cpu = cpu;
    return agx.energy(p, c).value();
  };
  EXPECT_GT(energy_at(resnet50_profile(), hi),
            energy_at(resnet50_profile(), lo));
  EXPECT_LT(energy_at(lstm_profile(), hi), energy_at(lstm_profile(), lo));
}

TEST(DeviceModel, Figure5AgxIsFasterAndMoreEfficient) {
  // Fig. 5: at x_max, the AGX beats the TX2 on every model in both time and
  // energy, but by model-dependent factors.
  const DeviceModel agx = jetson_agx();
  const DeviceModel tx2 = jetson_tx2();
  double latency_ratio[3];
  int i = 0;
  for (const WorkloadProfile& p : paper_profiles()) {
    const double t_agx = agx.latency(p, agx.space().max_config()).value();
    const double t_tx2 = tx2.latency(p, tx2.space().max_config()).value();
    const double e_agx = agx.energy(p, agx.space().max_config()).value();
    const double e_tx2 = tx2.energy(p, tx2.space().max_config()).value();
    EXPECT_LT(t_agx, t_tx2) << p.name;
    EXPECT_LT(e_agx, e_tx2) << p.name;
    latency_ratio[i++] = t_agx / t_tx2;
  }
  // ResNet50 benefits most from the newer GPU; the CPU-bound LSTM least.
  EXPECT_LT(latency_ratio[1], latency_ratio[0]);
  EXPECT_LT(latency_ratio[0], latency_ratio[2]);
}

TEST(DeviceModel, IntroHeadlineSpread) {
  // §1: "a proper configuration may lead to 8x faster training and 4x less
  // energy" — the spread across the whole space must be of that order.
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile vit = vit_profile();
  double t_min = std::numeric_limits<double>::infinity();
  double t_max = 0.0;
  double e_min = std::numeric_limits<double>::infinity();
  double e_max = 0.0;
  for (std::size_t flat = 0; flat < agx.space().size(); ++flat) {
    const DvfsConfig c = agx.space().from_flat(flat);
    const double t = agx.latency(vit, c).value();
    const double e = agx.energy(vit, c).value();
    t_min = std::min(t_min, t);
    t_max = std::max(t_max, t);
    e_min = std::min(e_min, e);
    e_max = std::max(e_max, e);
  }
  EXPECT_GT(t_max / t_min, 6.0);
  EXPECT_GT(e_max / e_min, 3.0);
}

TEST(DeviceModel, VitEnergyOptimumNearFigure11Knee) {
  // Fig. 11(a): the energy-minimal configuration sits near 0.3 s / 3.5 J.
  const DeviceModel agx = jetson_agx();
  const WorkloadProfile vit = vit_profile();
  double best_energy = std::numeric_limits<double>::infinity();
  double best_latency = 0.0;
  for (std::size_t flat = 0; flat < agx.space().size(); ++flat) {
    const DvfsConfig c = agx.space().from_flat(flat);
    const double e = agx.energy(vit, c).value();
    if (e < best_energy) {
      best_energy = e;
      best_latency = agx.latency(vit, c).value();
    }
  }
  EXPECT_NEAR(best_energy, 3.4, 0.6);
  EXPECT_NEAR(best_latency, 0.31, 0.1);
}

TEST(UnitPowerModel, VoltageCurve) {
  const UnitPowerModel unit{0.6, 1.1, 1.4, 5.0};
  EXPECT_DOUBLE_EQ(unit.voltage(0.0), 0.6);
  EXPECT_DOUBLE_EQ(unit.voltage(1.0), 1.1);
  EXPECT_GT(unit.voltage(0.5), 0.6);
  EXPECT_LT(unit.voltage(0.5), 1.1);
  // Convex: the midpoint sits below the linear interpolation.
  EXPECT_LT(unit.voltage(0.5), 0.85);
  EXPECT_THROW((void)unit.voltage(1.5), std::invalid_argument);
}

TEST(DeviceModel, UnknownWorkloadClassRejected) {
  DeviceModel agx = jetson_agx();
  DeviceSpec spec = agx.spec();
  spec.gpu_class_scale.clear();
  const DeviceModel broken(spec, agx.space());
  EXPECT_THROW(
      (void)broken.latency(vit_profile(), agx.space().max_config()),
      std::invalid_argument);
}

}  // namespace
}  // namespace bofl::device
