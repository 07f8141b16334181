#include "device/sysfs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "device/device_model.hpp"

namespace bofl::device {
namespace {

/// Whether a cur_freq file holds `freq` in kernel units: whole kHz for
/// cpufreq (per_ghz 1e6), whole Hz for devfreq (per_ghz 1e9).
::testing::AssertionResult holds_rate(const SysfsTree& tree, const char* path,
                                      GigaHertz freq, double per_ghz) {
  const std::string expected =
      std::to_string(std::llround(freq.value() * per_ghz));
  if (tree.read(path) == expected) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << path << " holds " << tree.read(path) << ", expected " << expected;
}

TEST(SysfsTree, WriteReadRoundTrip) {
  SysfsTree tree;
  tree.write("/sys/test/value", "123");
  EXPECT_EQ(tree.read("/sys/test/value"), "123");
}

TEST(SysfsTree, MissingFileThrows) {
  const SysfsTree tree;
  EXPECT_THROW((void)tree.read("/nope"), std::invalid_argument);
}

TEST(SysfsTree, OverwriteReplaces) {
  SysfsTree tree;
  tree.write("/f", "1");
  tree.write("/f", "2");
  EXPECT_EQ(tree.read("/f"), "2");
}

TEST(SysfsController, BootsPinnedToMax) {
  const DeviceModel agx = jetson_agx();
  const SysfsDvfsController controller(agx.space());
  const DvfsConfig max = agx.space().max_config();
  const SysfsTree& tree = controller.tree();
  EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kCpuCurPath,
                         agx.space().cpu_freq(max), 1e6));
  EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kGpuCurPath,
                         agx.space().gpu_freq(max), 1e9));
  EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kMemCurPath,
                         agx.space().mem_freq(max), 1e9));
}

TEST(SysfsController, CreatesJetsonStyleLayout) {
  const DeviceModel agx = jetson_agx();
  const SysfsDvfsController controller(agx.space());
  const SysfsTree& tree = controller.tree();
  for (const char* path :
       {SysfsDvfsController::kCpuMinPath, SysfsDvfsController::kCpuMaxPath,
        SysfsDvfsController::kCpuCurPath, SysfsDvfsController::kGpuMinPath,
        SysfsDvfsController::kGpuMaxPath, SysfsDvfsController::kGpuCurPath,
        SysfsDvfsController::kMemMinPath, SysfsDvfsController::kMemMaxPath,
        SysfsDvfsController::kMemCurPath}) {
    EXPECT_NO_THROW((void)tree.read(path)) << path;
  }
}

TEST(SysfsController, KernelUnits) {
  const DeviceModel agx = jetson_agx();
  SysfsDvfsController controller(agx.space());
  controller.apply({0, 0, 0});
  // CPU in kHz (0.4224 GHz = 422400 kHz), GPU/MEM in Hz.
  EXPECT_EQ(controller.tree().read(SysfsDvfsController::kCpuCurPath),
            "422400");
  EXPECT_EQ(controller.tree().read(SysfsDvfsController::kGpuCurPath),
            "114700000");
  EXPECT_EQ(controller.tree().read(SysfsDvfsController::kMemCurPath),
            "204000000");
}

TEST(SysfsController, MinEqualsMaxAfterPin) {
  const DeviceModel agx = jetson_agx();
  SysfsDvfsController controller(agx.space());
  controller.apply({3, 4, 2});
  EXPECT_EQ(controller.tree().read(SysfsDvfsController::kCpuMinPath),
            controller.tree().read(SysfsDvfsController::kCpuMaxPath));
  EXPECT_EQ(controller.tree().read(SysfsDvfsController::kGpuMinPath),
            controller.tree().read(SysfsDvfsController::kGpuMaxPath));
}

// Every pinned configuration reads back from the cur_freq files (the
// current rates) as the table frequencies it was pinned to.
TEST(SysfsController, ApplyCurrentRoundTripWholeSpace) {
  const DeviceModel tx2 = jetson_tx2();
  SysfsDvfsController controller(tx2.space());
  const SysfsTree& tree = controller.tree();
  for (std::size_t flat = 0; flat < tx2.space().size(); flat += 7) {
    const DvfsConfig config = tx2.space().from_flat(flat);
    controller.apply(config);
    EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kCpuCurPath,
                           tx2.space().cpu_freq(config), 1e6))
        << "flat=" << flat;
    EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kGpuCurPath,
                           tx2.space().gpu_freq(config), 1e9))
        << "flat=" << flat;
    EXPECT_TRUE(holds_rate(tree, SysfsDvfsController::kMemCurPath,
                           tx2.space().mem_freq(config), 1e9))
        << "flat=" << flat;
  }
}

}  // namespace
}  // namespace bofl::device
