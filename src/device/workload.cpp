#include "device/workload.hpp"

namespace bofl::device {

// The work constants are calibrated so that, on the Jetson AGX model at
// x_max = (2.26, 1.38, 2.13) GHz, the per-minibatch latency matches the
// values implied by the paper's Table 2 (T_min = T(x_max) · W):
//   ViT 0.186 s, ResNet50 0.261 s, LSTM 0.288 s.
// See tests/device/device_model_test.cc for the pinned calibration checks.

WorkloadProfile vit_profile() {
  WorkloadProfile p;
  p.name = "vit";
  p.workload_class = WorkloadClass::kTransformer;
  p.cpu_work = 0.1400;
  p.gpu_work = 0.2091;
  p.mem_work = 0.1613;
  p.serial_fraction = 0.25;
  return p;
}

WorkloadProfile resnet50_profile() {
  WorkloadProfile p;
  p.name = "resnet50";
  p.workload_class = WorkloadClass::kCnn;
  p.cpu_work = 0.1078;
  p.gpu_work = 0.3077;
  p.mem_work = 0.3046;
  p.serial_fraction = 0.20;
  return p;
}

WorkloadProfile lstm_profile() {
  WorkloadProfile p;
  p.name = "lstm";
  p.workload_class = WorkloadClass::kRnn;
  p.cpu_work = 0.4500;
  p.gpu_work = 0.1690;
  p.mem_work = 0.1630;
  p.serial_fraction = 0.45;
  p.cpu_power_intensity = 0.75;
  return p;
}

std::vector<WorkloadProfile> paper_profiles() {
  return {vit_profile(), resnet50_profile(), lstm_profile()};
}

std::optional<WorkloadProfile> profile_from_string(std::string_view name) {
  for (WorkloadProfile& profile : paper_profiles()) {
    if (profile.name == name) {
      return std::move(profile);
    }
  }
  return std::nullopt;
}

}  // namespace bofl::device
