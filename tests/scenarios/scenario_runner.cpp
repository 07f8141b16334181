#include "scenarios/scenario_runner.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bo/mbo_engine.hpp"
#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "core/mbo_cost.hpp"
#include "core/task.hpp"
#include "device/device_model.hpp"
#include "device/frequency.hpp"
#include "faults/scenarios.hpp"
#include "pareto/hypervolume.hpp"
#include "priors/snapshot.hpp"

namespace bofl::scenarios {

namespace {

device::DeviceModel make_model(const std::string& device) {
  if (device == "agx") {
    return device::jetson_agx();
  }
  if (device == "tx2") {
    return device::jetson_tx2();
  }
  throw std::invalid_argument("unknown device: " + device);
}

core::FlTaskSpec make_task(const std::string& task,
                           const std::string& device_name) {
  if (task == "vit") {
    return core::cifar10_vit_task(device_name);
  }
  if (task == "resnet50") {
    return core::imagenet_resnet50_task(device_name);
  }
  if (task == "lstm") {
    return core::imdb_lstm_task(device_name);
  }
  throw std::invalid_argument("unknown task: " + task);
}

/// Fixed hypervolume reference: 1.5x the component-wise worst true per-job
/// (energy, latency) over the whole DVFS space.  Fixed across rounds so
/// per-round hypervolumes are comparable (the engine's own reference can
/// drift while phase 1 is still discovering the worst observation).
pareto::Point2 fixed_reference(const device::DeviceModel& model,
                               const device::WorkloadProfile& profile) {
  pareto::Point2 worst;
  const device::DvfsSpace& space = model.space();
  for (std::size_t flat = 0; flat < space.size(); ++flat) {
    const device::DvfsConfig config = space.from_flat(flat);
    worst.f1 = std::max(worst.f1, model.energy(profile, config).value());
    worst.f2 = std::max(worst.f2, model.latency(profile, config).value());
  }
  return {1.5 * worst.f1, 1.5 * worst.f2};
}

}  // namespace

Joules DeviceScenarioResult::total_energy() const {
  return task.total_training_energy() + task.total_mbo_energy();
}

std::string DeviceScenarioResult::check_no_feasible_miss() const {
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const DeviceRoundReport& report = rounds[i];
    const core::RoundTrace& trace = task.rounds[i];
    if (report.feasible_at_start && !trace.deadline_met()) {
      std::ostringstream out;
      out << "round " << report.index << " was pessimistically feasible "
          << "(T_pess " << report.t_pessimistic_s << " s, deadline "
          << trace.deadline.value() << " s) but missed by "
          << trace.overrun().value() << " s";
      return out.str();
    }
  }
  return "";
}

std::string DeviceScenarioResult::check_monotone_hypervolume() const {
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    if (rounds[i].hypervolume + 1e-9 < rounds[i - 1].hypervolume) {
      std::ostringstream out;
      out << "hypervolume regressed at round " << rounds[i].index << ": "
          << rounds[i - 1].hypervolume << " -> " << rounds[i].hypervolume;
      return out.str();
    }
  }
  return "";
}

DeviceScenarioResult run_device_scenario(const faults::FaultPlan& plan,
                                         const DeviceScenarioOptions& opts) {
  const device::DeviceModel model = make_model(opts.device);
  core::FlTaskSpec task = make_task(opts.task, model.name());
  task.num_rounds = opts.rounds;
  // Same schedule derivation as bofl_sim, so a scenario test reproduces
  // exactly what `bofl_sim --scenario` runs.
  const std::vector<core::RoundSpec> rounds =
      core::make_rounds(task, model, opts.ratio, opts.seed ^ 0xD1CE);

  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(model.name());
  options.tau = opts.tau;
  core::BoflController controller(model, task.profile, device::NoiseModel{},
                                  options, opts.seed);

  faults::FaultInjector injector(plan, opts.seed);
  std::unique_ptr<faults::DeviceFaultChannel> channel;
  if (!injector.empty()) {
    channel = injector.make_device_channel(0);
    controller.install_fault_model(channel.get());
  }
  if (opts.prior != nullptr) {
    controller.apply_prior(*opts.prior, opts.prior_policy);
  }

  const pareto::Point2 ref = fixed_reference(model, task.profile);
  const device::DvfsConfig x_max = model.space().max_config();

  DeviceScenarioResult result;
  result.plan = injector.plan();
  result.task.rounds.reserve(rounds.size());
  result.rounds.reserve(rounds.size());
  for (const core::RoundSpec& spec : rounds) {
    DeviceRoundReport report;
    report.index = spec.index;

    // Pessimistic Eqn. 2 before the round runs: the worst combined fault
    // effect any job inside [now, now + deadline) could see.
    const double t0 = controller.sim_time().value();
    faults::DeviceFaultChannel::WorstCase worst;
    if (channel != nullptr) {
      worst = channel->worst_case_in(t0, t0 + spec.deadline.value());
    }
    const device::DvfsConfig capped =
        device::clamp_config(model.space(), x_max, worst.config_cap);
    report.t_pessimistic_s = model.latency(task.profile, capped).value() *
                             worst.latency_multiplier;
    const double margin = options.deadline_safety_margin;
    const double reserve =
        opts.tau.value() +
        options.first_job_allowance * report.t_pessimistic_s;
    report.feasible_at_start =
        static_cast<double>(spec.num_jobs) * report.t_pessimistic_s *
            (1.0 + margin) <=
        spec.deadline.value() - reserve;

    result.task.rounds.push_back(controller.run_round(spec));

    report.hypervolume =
        pareto::hypervolume_2d(controller.engine().observed_front(), ref);
    result.rounds.push_back(report);

    if (channel != nullptr) {
      for (faults::FaultEvent& event : channel->drain_events(spec.index)) {
        result.events.push_back(event);
      }
    }
  }
  result.prior_state = controller.prior_state();
  result.snapshot = priors::distill(controller, opts.rounds);
  return result;
}

DeviceScenarioResult run_named_device_scenario(
    const std::string& name, const DeviceScenarioOptions& opts) {
  const device::DeviceModel model = make_model(opts.device);
  core::FlTaskSpec task = make_task(opts.task, model.name());
  task.num_rounds = opts.rounds;
  const std::vector<core::RoundSpec> rounds =
      core::make_rounds(task, model, opts.ratio, opts.seed ^ 0xD1CE);
  double horizon = 0.0;
  for (const core::RoundSpec& spec : rounds) {
    horizon += spec.deadline.value();
  }
  return run_device_scenario(
      faults::make_scenario(name, opts.seed ^ 0xFA17ULL, horizon), opts);
}

std::vector<std::string> sweep_scenario_names() {
  std::vector<std::string> names;
  for (const faults::ScenarioInfo& info : faults::all_scenarios()) {
    if (!info.hidden) {
      names.push_back(info.name);
    }
  }
  return names;
}

}  // namespace bofl::scenarios
