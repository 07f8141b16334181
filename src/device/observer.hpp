// Simulated time, power sensing and performance observation.
//
// SimClock is the single source of truth for time in the simulation; every
// executed job advances it by the job's *true* latency.  Measurements,
// however, pass through noise models:
//   * PowerSensor (the INA3221 stand-in) returns energy readings with a
//     relative error that shrinks with the measurement duration — short
//     reads catch the rails before the voltage settles, which is exactly
//     why the paper introduces the reference measurement duration τ (§4.2).
//   * PerformanceObserver runs batches of jobs under one configuration,
//     advances the clock, and reports per-job latency and energy readings
//     (latency via the CUDA-event analogue: accurate, small noise).
#pragma once

#include <cstdint>
#include <optional>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "device/device_model.hpp"

namespace bofl::device {

/// Deterministic simulated wall clock.
class SimClock {
 public:
  [[nodiscard]] Seconds now() const { return now_; }
  void advance(Seconds delta);

 private:
  Seconds now_{0.0};
};

/// First-order RC thermal model with frequency throttling, mirroring the
/// Jetson's transparent thermal management.  When the die temperature
/// crosses throttle_temp_c, the hardware caps every DVFS axis at
/// throttle_cap * (steps - 1) until it cools below the threshold again;
/// the running software just observes slower jobs.
struct ThermalParams {
  double ambient_c = 25.0;
  double thermal_resistance_c_per_w = 1.4;  ///< steady ΔT per watt
  double time_constant_s = 90.0;            ///< RC time constant
  double throttle_temp_c = 85.0;
  double throttle_cap = 0.6;                ///< axis-index cap fraction
};

/// Disturbance model: measurement noise plus optional execution-level
/// disturbances — latency spikes from background OS activity and
/// transparent thermal throttling.
struct NoiseModel {
  /// Coefficient of variation of latency readings at the reference
  /// duration (CUDA events are accurate; default 1 %).
  double latency_cv = 0.01;
  /// Coefficient of variation of energy readings at the reference duration.
  double energy_cv = 0.03;
  /// Measurement duration at which the CVs above hold [s].
  double reference_duration = 5.0;
  /// Noise growth cap for very short measurements (CV multiplier bound).
  double max_amplification = 4.0;

  /// Failure injection: each job independently suffers a latency spike
  /// with this probability (preempting daemons, page faults, GC, ...).
  double spike_probability = 0.0;
  /// A spiked job takes this multiple of its nominal latency (and, with the
  /// device held busy, the proportional energy).
  double spike_magnitude = 3.0;
  /// Thermal throttling; disabled when unset.
  std::optional<ThermalParams> thermal;

  /// Effective CV for a measurement spanning `duration` seconds: the base
  /// CV amplified by sqrt(reference/duration), capped.
  [[nodiscard]] double effective_cv(double base_cv, double duration) const;
};

/// Per-job execution faults injected by an external fault layer
/// (src/faults): co-runner interference, throttling storms, platform DVFS
/// clamping, and flaky measurement reads.  The observer queries one model
/// per job and per measurement window.
///
/// Determinism contract: implementations must be pure functions of the
/// simulated time they are handed plus their own private state.  A model
/// instance is owned by exactly one client/controller (never shared across
/// workers), so fault sequences are bit-identical for any thread count.
class JobFaultModel {
 public:
  virtual ~JobFaultModel() = default;

  /// What a fault does to one job's execution.
  struct JobEffect {
    double latency_multiplier = 1.0;  ///< co-running load, storm slowdown
    double energy_multiplier = 1.0;   ///< the device is held busy meanwhile
    /// Platform DVFS clamp: the governor rejects the requested config and
    /// runs clamp_config(space, requested, config_cap) instead.  1 = none.
    double config_cap = 1.0;
  };

  /// Effect on a job starting at simulated time `now_s` [s].
  [[nodiscard]] virtual JobEffect job_effect(double now_s) = 0;

  /// Multiplicative distortion of the *measured* readings (latency and
  /// energy) of a measurement window ending at `now_s`; 1.0 = healthy read.
  /// Models transient sysfs/INA read failures — the true execution is
  /// unaffected, only the reported numbers are garbage.  May advance the
  /// model's private draw state.
  [[nodiscard]] virtual double measurement_distortion(double now_s) = 0;
};

/// Evolving die temperature.
class ThermalState {
 public:
  explicit ThermalState(const ThermalParams& params);

  /// Integrate `duration` seconds at `power` draw.
  void advance(Watts power, Seconds duration);

  [[nodiscard]] double temperature_c() const { return temperature_c_; }
  [[nodiscard]] bool throttled() const;

  /// The configuration the hardware actually runs when `requested` is
  /// asked for at the current temperature.
  [[nodiscard]] DvfsConfig effective_config(const DvfsSpace& space,
                                            const DvfsConfig& requested) const;

 private:
  ThermalParams params_;
  double temperature_c_;
};

/// INA3221 stand-in: converts true energy into a noisy reading.
class PowerSensor {
 public:
  PowerSensor(NoiseModel noise, Rng rng);

  /// A noisy energy reading for a measurement window of `duration` whose
  /// true consumed energy is `true_energy`.
  [[nodiscard]] Joules read_energy(Joules true_energy, Seconds duration);

 private:
  NoiseModel noise_;
  Rng rng_;
};

/// Result of running a batch of jobs under one configuration.
struct Measurement {
  std::int64_t jobs = 0;
  Seconds true_duration{0.0};      ///< exact wall time consumed
  Seconds measured_latency{0.0};   ///< noisy per-job latency reading
  Joules measured_energy{0.0};     ///< noisy per-job energy reading
  Joules true_energy{0.0};         ///< exact energy consumed (accounting)
};

/// Runs jobs on the simulated device and reports noisy measurements.
class PerformanceObserver {
 public:
  /// `model` must outlive the observer.
  PerformanceObserver(const DeviceModel& model, NoiseModel noise,
                      std::uint64_t seed);

  /// Execute `count` jobs of `profile` under `config`: advances `clock` by
  /// the true total latency and returns per-job readings.
  Measurement run_jobs(const WorkloadProfile& profile,
                       const DvfsConfig& config, std::int64_t count,
                       SimClock& clock);

  /// The thermal model (NoiseModel::thermal), or nullptr when off.
  [[nodiscard]] const ThermalState* thermal() const {
    return thermal_ ? &*thermal_ : nullptr;
  }

  /// Install (or clear, with nullptr) a fault model consulted per job and
  /// per measurement.  Non-owning; `faults` must outlive the observer and
  /// must not be shared with any other observer (see JobFaultModel).
  void set_fault_model(JobFaultModel* faults) { faults_ = faults; }
  [[nodiscard]] JobFaultModel* fault_model() const { return faults_; }

  /// Escape hatch: false routes every job cost through the analytical
  /// DeviceModel calls instead of the flat config-indexed tables (the
  /// default).  Table reads are bit-identical to model calls by
  /// construction — the differential tests assert it — so this only exists
  /// for those tests and for debugging.
  void set_use_flat_tables(bool use) { use_flat_tables_ = use; }
  [[nodiscard]] bool use_flat_tables() const { return use_flat_tables_; }

  [[nodiscard]] const DeviceModel& model() const { return model_; }

 private:
  /// The SoA cost table for `profile`, rebuilt only when the profile
  /// changes (each controller drives one workload, so in practice this
  /// builds once and then every job is three array reads).
  [[nodiscard]] const FlatPerfTable& flat_table_for(
      const WorkloadProfile& profile);

  const DeviceModel& model_;
  NoiseModel noise_;
  Rng rng_;
  PowerSensor sensor_;
  std::optional<ThermalState> thermal_;
  JobFaultModel* faults_ = nullptr;
  bool use_flat_tables_ = true;
  std::optional<WorkloadProfile> flat_profile_;  ///< profile flat_table_ is for
  FlatPerfTable flat_table_;
};

}  // namespace bofl::device
