// Workload profiles: the hardware footprint of training one minibatch.
//
// The paper trains ViT, ResNet50 and LSTM with PyTorch; what the pace
// controller sees is only how one minibatch ("job") loads the CPU, GPU and
// memory controller.  A WorkloadProfile captures that footprint in
// device-independent units:
//   * cpu_work  [GHz·s]  — cycles of host-side work (data loading, kernel
//                          launches, optimizer bookkeeping), expressed as
//                          seconds of work at 1 GHz on the reference device,
//   * gpu_work  [GHz·s]  — accelerator cycles for forward/backward,
//   * mem_work  [GHz·s]  — memory-controller cycles for tensor traffic,
//   * serial_fraction    — the share of the three components that cannot be
//                          overlapped (the rest pipelines; the job latency
//                          interpolates between sum and max).
// The three calibrated profiles below reproduce the qualitative behaviour
// of the paper's Figures 3–5: ViT and ResNet50 are GPU/memory bound (flat
// latency in CPU frequency), LSTM is CPU bound (latency halves from 0.6 to
// 1.7 GHz), and energy responds non-monotonically.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bofl::device {

/// Architecture class of the model; newer GPU generations accelerate the
/// classes differently (the paper's "hardware dependence", Fig. 5).
enum class WorkloadClass {
  kTransformer,
  kCnn,
  kRnn,
};

struct WorkloadProfile {
  std::string name;
  WorkloadClass workload_class = WorkloadClass::kCnn;
  double cpu_work = 0.0;        ///< GHz·s per minibatch
  double gpu_work = 0.0;        ///< GHz·s per minibatch
  double mem_work = 0.0;        ///< GHz·s per minibatch
  double serial_fraction = 0.2; ///< in [0, 1]
  /// Power drawn per CPU cycle relative to a compute-dense workload; the
  /// LSTM's host loop is memory-stall heavy and burns less per cycle.
  double cpu_power_intensity = 1.0;

  /// Memberwise equality (exact doubles) — lets FlatPerfTable caches detect
  /// a profile switch.
  [[nodiscard]] friend bool operator==(const WorkloadProfile&,
                                       const WorkloadProfile&) = default;
};

/// CIFAR10-ViT (minibatch 32): attention-heavy, GPU bound with a visible
/// CPU floor.
[[nodiscard]] WorkloadProfile vit_profile();

/// ImageNet-ResNet50 (minibatch 8): convolution-heavy, GPU + memory bound.
[[nodiscard]] WorkloadProfile resnet50_profile();

/// IMDB-LSTM (minibatch 8): recurrent, host-serialized, CPU bound.
[[nodiscard]] WorkloadProfile lstm_profile();

/// All three paper workloads, in the paper's order.
[[nodiscard]] std::vector<WorkloadProfile> paper_profiles();

/// Look up a paper workload by its profile name ("vit", "resnet50",
/// "lstm"); nullopt for anything else.  This is the name declarative specs
/// (fleet scenarios, CLI mixes) use to reference a workload.
[[nodiscard]] std::optional<WorkloadProfile> profile_from_string(
    std::string_view name);

}  // namespace bofl::device
