// bofl_scenarios — the nightly randomized scenario sweep.
//
//   bofl_scenarios [--seed N] [--rounds R] [--out events.jsonl]
//
// Runs every named fault scenario (device mode) plus a straggler-heavy
// fleet-engine run at the given seed, checks the robustness invariants the
// scenario and fleet tests pin at fixed seeds, and exits nonzero on any
// violation.
// CI derives --seed from the date, so the sweep walks a fresh slice of the
// fault space every night while staying reproducible from the logged seed.
// --out streams the fault events and per-scenario verdicts as JSON Lines
// (the CI artifact).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "faults/fault_injector.hpp"
#include "faults/scenarios.hpp"
#include "fleet/fleet_engine.hpp"
#include "scenarios/scenario_runner.hpp"
#include "telemetry/run_recorder.hpp"

int main(int argc, char** argv) {
  using namespace bofl;
  const FlagParser flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::int64_t rounds = flags.get_int("rounds", 16);
  const std::string out_path = flags.get("out", "");

  telemetry::Registry registry;
  std::unique_ptr<telemetry::RunRecorder> recorder;
  if (!out_path.empty()) {
    recorder = std::make_unique<telemetry::RunRecorder>(registry, out_path);
    telemetry::install_global_recorder(recorder.get());
  }

  scenarios::DeviceScenarioOptions opts;
  opts.rounds = rounds;
  opts.seed = seed;
  std::printf("bofl_scenarios: seed=%llu rounds=%lld\n",
              static_cast<unsigned long long>(seed),
              static_cast<long long>(rounds));

  int failures = 0;
  const double clean_energy =
      scenarios::run_named_device_scenario("clean", opts)
          .total_energy()
          .value();
  for (const std::string& name : scenarios::sweep_scenario_names()) {
    const scenarios::DeviceScenarioResult result =
        scenarios::run_named_device_scenario(name, opts);
    for (const faults::FaultEvent& event : result.events) {
      faults::emit_fault_event(event);
    }
    const std::string miss = result.check_no_feasible_miss();
    const std::string hv = result.check_monotone_hypervolume();
    const double energy = result.total_energy().value();
    const bool energy_ok = energy <= 4.0 * clean_energy;
    const bool ok = miss.empty() && hv.empty() && energy_ok;
    failures += ok ? 0 : 1;
    std::printf("%-20s %-4s events=%zu energy=%.0fJ (%.2fx clean)\n",
                name.c_str(), ok ? "ok" : "FAIL", result.events.size(),
                energy, energy / clean_energy);
    if (!miss.empty()) {
      std::printf("  feasible-miss: %s\n", miss.c_str());
    }
    if (!hv.empty()) {
      std::printf("  hypervolume: %s\n", hv.c_str());
    }
    if (!energy_ok) {
      std::printf("  energy regret above 4x clean\n");
    }
    if (recorder) {
      telemetry::JsonValue verdict = telemetry::JsonValue::object();
      verdict.set("scenario", name)
          .set("seed", seed)
          .set("ok", ok)
          .set("fault_events", result.events.size())
          .set("energy_j", energy)
          .set("energy_vs_clean", energy / clean_energy);
      if (!miss.empty()) {
        verdict.set("feasible_miss", miss);
      }
      if (!hv.empty()) {
        verdict.set("hypervolume_regression", hv);
      }
      recorder->emit("scenario_verdict", std::move(verdict));
    }
  }

  // Fleet sweep: stragglers, dropouts and deadline jitter through the
  // fleet engine's round close, with a straggler cutoff of one reference
  // deadline.  A straggler's delay scales with its own deadline and the
  // cutoff with the cohort's largest, so at two deadlines the cutoff never
  // fires; at one it does, and the check requires that it did.  Device
  // episode windows scale with the simulated horizon: rounds x
  // (deadline_ratio x the round's minimum time).
  fleet::FleetConfig fleet;
  fleet.num_clients = 2000;
  fleet.cohort_fraction = 0.05;
  fleet.rounds = 6;
  fleet.seed = seed ^ 0xF1EE7ULL;
  fleet.threads = 1;
  fleet.straggler_timeout = 1.0;
  const double horizon =
      static_cast<double>(fleet.rounds) * fleet.deadline_ratio *
      device::jetson_agx()
          .round_t_min(device::vit_profile(), fleet.jobs_per_round)
          .value();
  fleet.fault_plan =
      faults::make_scenario("straggler-heavy", fleet.seed ^ 0xFA17ULL, horizon);
  fleet::FleetEngine engine(fleet);
  const fleet::FleetResult fleet_result = engine.run();
  bool fleet_ok =
      fleet_result.rounds.size() == static_cast<std::size_t>(fleet.rounds);
  std::uint64_t stragglers = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timed_out = 0;
  for (const fleet::FleetRoundStats& stats : fleet_result.rounds) {
    stragglers += stats.stragglers;
    dropped += stats.dropped;
    timed_out += stats.timed_out;
    const auto cutoff_us = static_cast<std::uint64_t>(
        std::llround(fleet.straggler_timeout *
                     static_cast<double>(stats.deadline_ref_us)));
    fleet_ok = fleet_ok && stats.participants > 0 &&
               stats.missed <= stats.participants &&
               stats.timed_out <= stats.participants &&
               stats.wall_us <= cutoff_us;
  }
  // The wall bound is only a check if the cutoff cut some round short.
  fleet_ok = fleet_ok && timed_out > 0;
  failures += fleet_ok ? 0 : 1;
  std::printf("%-20s %-4s stragglers=%llu dropped=%llu timeout_rate=%.3f\n",
              "fleet:straggler", fleet_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(stragglers),
              static_cast<unsigned long long>(dropped),
              fleet_result.timeout_rate());

  if (recorder) {
    recorder->emit_summary();
    std::printf("events written to %s (%zu lines)\n", out_path.c_str(),
                recorder->events_written());
    telemetry::install_global_recorder(nullptr);
  }
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
