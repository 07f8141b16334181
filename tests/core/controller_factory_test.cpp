#include "core/controller_factory.hpp"

#include <gtest/gtest.h>

#include "device/device_model.hpp"

namespace bofl::core {
namespace {

constexpr ControllerKind kAllKinds[] = {
    ControllerKind::kBofl, ControllerKind::kPerformant,
    ControllerKind::kOracle, ControllerKind::kLinear};

TEST(ControllerFactory, CliNamesParseToEveryKind) {
  EXPECT_EQ(controller_kind_from_string("bofl"), ControllerKind::kBofl);
  EXPECT_EQ(controller_kind_from_string("performant"),
            ControllerKind::kPerformant);
  EXPECT_EQ(controller_kind_from_string("oracle"), ControllerKind::kOracle);
  EXPECT_EQ(controller_kind_from_string("linear"), ControllerKind::kLinear);
  EXPECT_FALSE(controller_kind_from_string("toaster").has_value());
  EXPECT_FALSE(controller_kind_from_string("BoFL").has_value());
}

TEST(ControllerFactory, BuiltControllerIsNamedAfterItsKind) {
  const device::DeviceModel agx = device::jetson_agx();
  for (const ControllerKind kind : kAllKinds) {
    const auto controller = make_controller(
        kind, agx, device::vit_profile(), {}, BoflOptions{}, 1, std::nullopt);
    ASSERT_NE(controller, nullptr);
    EXPECT_EQ(controller->name(), to_string(kind));
    EXPECT_EQ(dynamic_cast<const BoflController*>(controller.get()) !=
                  nullptr,
              kind == ControllerKind::kBofl);
  }
}

double applied_tau(const device::DeviceModel& model,
                   std::optional<Seconds> round_t_min) {
  BoflOptions options;
  options.tau = Seconds{5.0};
  const auto controller =
      make_controller(ControllerKind::kBofl, model, device::vit_profile(), {},
                      options, 1, round_t_min);
  return dynamic_cast<const BoflController&>(*controller).options().tau.value();
}

TEST(ControllerFactory, BoflTauIsCappedAtAnEighthOfTheRound) {
  const device::DeviceModel tx2 = device::jetson_tx2();
  EXPECT_EQ(applied_tau(tx2, Seconds{16.0}), 2.0);
  EXPECT_EQ(applied_tau(tx2, Seconds{400.0}), 5.0);
  EXPECT_EQ(applied_tau(tx2, std::nullopt), 5.0);
}

TEST(ControllerFactory, BoflGetsTheDeviceCalibratedMboCost) {
  const device::DeviceModel tx2 = device::jetson_tx2();
  const auto controller =
      make_controller(ControllerKind::kBofl, tx2, device::vit_profile(), {},
                      BoflOptions{}, 1, std::nullopt);
  const MboCostModel applied =
      dynamic_cast<const BoflController&>(*controller).options().mbo_cost;
  const MboCostModel expected = mbo_cost_for_device(tx2.name());
  EXPECT_EQ(applied.base_seconds, expected.base_seconds);
  EXPECT_EQ(applied.per_pick_seconds, expected.per_pick_seconds);
  EXPECT_EQ(applied.power_watts, expected.power_watts);
  EXPECT_NE(expected.base_seconds, MboCostModel{}.base_seconds);
}

}  // namespace
}  // namespace bofl::core
