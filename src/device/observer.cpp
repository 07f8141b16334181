#include "device/observer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace bofl::device {

void SimClock::advance(Seconds delta) {
  BOFL_REQUIRE(delta.value() >= 0.0, "time cannot move backwards");
  now_ += delta;
}

double NoiseModel::effective_cv(double base_cv, double duration) const {
  BOFL_REQUIRE(duration > 0.0, "measurement duration must be positive");
  const double amplification = std::min(
      std::sqrt(reference_duration / duration), max_amplification);
  return base_cv * std::max(amplification, 1.0);
}

ThermalState::ThermalState(const ThermalParams& params)
    : params_(params), temperature_c_(params.ambient_c) {
  BOFL_REQUIRE(params.time_constant_s > 0.0,
               "thermal time constant must be positive");
  BOFL_REQUIRE(params.throttle_cap > 0.0 && params.throttle_cap <= 1.0,
               "throttle cap must be in (0, 1]");
  BOFL_REQUIRE(params.thermal_resistance_c_per_w >= 0.0,
               "thermal resistance must be non-negative");
}

void ThermalState::advance(Watts power, Seconds duration) {
  BOFL_REQUIRE(duration.value() >= 0.0, "duration must be non-negative");
  // First-order RC: T' = T_inf + (T - T_inf) * exp(-dt / tau).
  const double steady =
      params_.ambient_c + params_.thermal_resistance_c_per_w * power.value();
  const double decay = std::exp(-duration.value() / params_.time_constant_s);
  temperature_c_ = steady + (temperature_c_ - steady) * decay;
}

bool ThermalState::throttled() const {
  return temperature_c_ >= params_.throttle_temp_c;
}

DvfsConfig ThermalState::effective_config(const DvfsSpace& space,
                                          const DvfsConfig& requested) const {
  if (!throttled()) {
    return requested;
  }
  return clamp_config(space, requested, params_.throttle_cap);
}

PowerSensor::PowerSensor(NoiseModel noise, Rng rng)
    : noise_(noise), rng_(rng) {}

Joules PowerSensor::read_energy(Joules true_energy, Seconds duration) {
  const double cv = noise_.effective_cv(noise_.energy_cv, duration.value());
  return Joules{true_energy.value() * rng_.lognormal_mean1(cv)};
}

PerformanceObserver::PerformanceObserver(const DeviceModel& model,
                                         NoiseModel noise, std::uint64_t seed)
    : model_(model), noise_(noise), rng_(seed), sensor_(noise, rng_.split()) {
  BOFL_REQUIRE(noise.spike_probability >= 0.0 && noise.spike_probability < 1.0,
               "spike probability must be in [0, 1)");
  BOFL_REQUIRE(noise.spike_magnitude >= 1.0,
               "a latency spike cannot speed a job up");
  if (noise_.thermal) {
    thermal_.emplace(*noise_.thermal);
  }
}

const FlatPerfTable& PerformanceObserver::flat_table_for(
    const WorkloadProfile& profile) {
  if (!flat_profile_ || !(*flat_profile_ == profile)) {
    flat_table_ = FlatPerfTable::build(model_, profile);
    flat_profile_ = profile;
  }
  return flat_table_;
}

Measurement PerformanceObserver::run_jobs(const WorkloadProfile& profile,
                                          const DvfsConfig& config,
                                          std::int64_t count,
                                          SimClock& clock) {
  BOFL_REQUIRE(count > 0, "must run at least one job");
  Measurement m;
  m.jobs = count;

  // Per-job costs come from the flat SoA table (three array reads per
  // config) unless the escape hatch routes them through the analytical
  // model; the two are bit-identical (see FlatPerfTable).
  const FlatPerfTable* table =
      use_flat_tables_ ? &flat_table_for(profile) : nullptr;
  const DvfsSpace& space = model_.space();

  const bool job_level = noise_.spike_probability > 0.0 ||
                         thermal_.has_value() || faults_ != nullptr;
  if (!job_level) {
    // Fast path: every job is identical.
    const std::size_t flat = space.to_flat(config);
    const Seconds per_job_latency =
        table != nullptr ? Seconds{table->latency_s[flat]}
                         : model_.latency(profile, config);
    const Joules per_job_energy = table != nullptr
                                      ? Joules{table->energy_j[flat]}
                                      : model_.energy(profile, config);
    const auto jobs = static_cast<double>(count);
    m.true_duration = per_job_latency * jobs;
    m.true_energy = per_job_energy * jobs;
  } else {
    // Disturbed path: spikes, thermal throttling and injected faults vary
    // per job.  Job start times are the clock's value plus the duration
    // accumulated so far in this batch (the clock itself only advances
    // once, after the batch).
    std::uint64_t throttled_jobs = 0;
    std::uint64_t spiked_jobs = 0;
    std::uint64_t faulted_jobs = 0;
    for (std::int64_t j = 0; j < count; ++j) {
      const double now = clock.now().value() + m.true_duration.value();
      JobFaultModel::JobEffect effect;
      if (faults_ != nullptr) {
        effect = faults_->job_effect(now);
      }
      DvfsConfig effective = config;
      if (effect.config_cap < 1.0) {
        // The platform governor rejects the requested point (fault seam).
        effective = clamp_config(space, effective, effect.config_cap);
      }
      if (thermal_) {
        effective = thermal_->effective_config(space, effective);
        if (thermal_->throttled()) {
          ++throttled_jobs;
        }
      }
      const std::size_t effective_flat = space.to_flat(effective);
      const double base_latency =
          table != nullptr ? table->latency_s[effective_flat]
                           : model_.latency(profile, effective).value();
      const double base_energy =
          table != nullptr ? table->energy_j[effective_flat]
                           : model_.energy(profile, effective).value();
      double latency = base_latency * effect.latency_multiplier;
      double energy = base_energy * effect.energy_multiplier;
      if (effect.latency_multiplier != 1.0 || effect.energy_multiplier != 1.0 ||
          effect.config_cap < 1.0) {
        ++faulted_jobs;
      }
      if (noise_.spike_probability > 0.0 &&
          rng_.bernoulli(noise_.spike_probability)) {
        // The device stays busy for the whole spike.
        latency *= noise_.spike_magnitude;
        energy *= noise_.spike_magnitude;
        ++spiked_jobs;
      }
      m.true_duration += Seconds{latency};
      m.true_energy += Joules{energy};
      if (thermal_) {
        thermal_->advance(Joules{energy} / Seconds{latency},
                          Seconds{latency});
      }
    }
    if (throttled_jobs > 0 || spiked_jobs > 0 || faulted_jobs > 0) {
      if (telemetry::Registry* reg = telemetry::global_registry()) {
        if (throttled_jobs > 0) {
          reg->counter("device.thermal_throttled_jobs").add(throttled_jobs);
        }
        if (spiked_jobs > 0) {
          reg->counter("device.latency_spike_jobs").add(spiked_jobs);
        }
        if (faulted_jobs > 0) {
          reg->counter("device.faulted_jobs").add(faulted_jobs);
        }
      }
    }
  }
  clock.advance(m.true_duration);

  const auto jobs = static_cast<double>(count);
  const double latency_cv =
      noise_.effective_cv(noise_.latency_cv, m.true_duration.value());
  m.measured_latency = Seconds{m.true_duration.value() / jobs *
                               rng_.lognormal_mean1(latency_cv)};
  m.measured_energy =
      sensor_.read_energy(m.true_energy, m.true_duration) / jobs;
  if (faults_ != nullptr) {
    // Flaky measurement read: the whole window's readings are distorted;
    // the true execution (clock, energy accounting) is untouched.
    const double distortion =
        faults_->measurement_distortion(clock.now().value());
    if (distortion != 1.0) {
      m.measured_latency = m.measured_latency * distortion;
      m.measured_energy = m.measured_energy * distortion;
      if (telemetry::Registry* reg = telemetry::global_registry()) {
        reg->counter("device.flaky_measurements").add(1);
      }
    }
  }
  return m;
}

}  // namespace bofl::device
