// bofl_sim — the command-line driver for single-device experiments.
//
//   bofl_sim [--device agx|tx2] [--task vit|resnet50|lstm]
//            [--controller bofl|performant|oracle|linear]
//            [--ratio 2.0] [--rounds 100] [--seed 1] [--tau 5.0]
//            [--spike-prob 0] [--spike-mag 3] [--thermal]
//            [--faults PLAN.json | --scenario NAME] [--list-scenarios]
//            [--threads N] [--simd avx2|scalar] [--csv PATH]
//            [--save-state PATH] [--load-state PATH] [--quiet]
//            [--metrics-out PATH] [--metrics-summary]
//
// Runs one pace controller through one FL task on one simulated testbed and
// prints the per-round trace plus summary metrics; optionally exports the
// trace as CSV.  --metrics-out streams structured telemetry (JSON Lines
// events + a final summary line) to PATH; --metrics-summary prints the
// summary table to stdout.  --faults injects a fault plan (src/faults JSON
// dialect); --scenario runs a named curated plan (clean, thermal-storm,
// flaky-sysfs, straggler-heavy, mid-round-throttle) scaled to the round
// schedule.  --save-state writes the BoFL controller's learned state as a
// one-cluster knowledge store (priors/knowledge_store.hpp, the format
// bofl_fleet --priors save writes); --load-state resumes from the
// device/task cluster of such a store (a cluster with fewer observations
// than the surrogates need starts cold and says so), and a store without
// that cluster or with a malformed field is a usage error.  Everything a downstream user
// needs to poke at the system without writing C++.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "core/harness.hpp"
#include "faults/fault_injector.hpp"
#include "linalg/simd/dispatch.hpp"
#include "priors/knowledge_store.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace bofl;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--device agx|tx2] [--task vit|resnet50|lstm]\n"
      "          [--controller bofl|performant|oracle|linear]\n"
      "          [--ratio R] [--rounds N] [--seed S] [--tau SECONDS]\n"
      "          [--spike-prob P] [--spike-mag K] [--thermal]\n"
      "          [--faults PLAN.json | --scenario NAME] [--list-scenarios]\n"
      "          [--threads N] [--simd avx2|scalar] [--csv PATH]\n"
      "          [--save-state PATH] [--load-state PATH] [--quiet]\n"
      "          [--metrics-out PATH] [--metrics-summary]\n",
      argv0);
  return 2;
}

int run_sim(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (!cli::check_known_flags(
          flags, {"help", "device", "task", "controller", "ratio", "rounds",
                  "seed", "tau", "spike-prob", "spike-mag", "thermal",
                  "faults", "scenario", "list-scenarios", "threads", "simd",
                  "csv", "save-state", "load-state", "quiet", "metrics-out",
                  "metrics-summary"})) {
    return usage(argv[0]);
  }
  if (flags.has("help")) {
    return usage(argv[0]);
  }
  if (flags.get_bool("list-scenarios")) {
    cli::print_fault_scenarios();
    return 0;
  }
  if (!cli::apply_simd_flag(flags)) {
    return usage(argv[0]);
  }
  const std::optional<core::ControllerKind> kind =
      cli::parse_controller_flag(flags);
  if (!kind.has_value()) {
    return usage(argv[0]);
  }

  const std::string device_name = flags.get("device", "agx");
  const device::DeviceModel model =
      device_name == "tx2" ? device::jetson_tx2() : device::jetson_agx();
  if (device_name != "agx" && device_name != "tx2") {
    std::fprintf(stderr, "unknown device: %s\n", device_name.c_str());
    return usage(argv[0]);
  }

  const std::string task_name = flags.get("task", "vit");
  core::FlTaskSpec task = core::cifar10_vit_task(model.name());
  if (task_name == "resnet50") {
    task = core::imagenet_resnet50_task(model.name());
  } else if (task_name == "lstm") {
    task = core::imdb_lstm_task(model.name());
  } else if (task_name != "vit") {
    std::fprintf(stderr, "unknown task: %s\n", task_name.c_str());
    return usage(argv[0]);
  }
  task.num_rounds = flags.get_int("rounds", 100);

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double ratio = flags.get_double("ratio", 2.0);
  const auto rounds = core::make_rounds(task, model, ratio, seed ^ 0xD1CE);

  device::NoiseModel noise;
  noise.spike_probability = flags.get_double("spike-prob", 0.0);
  noise.spike_magnitude = flags.get_double("spike-mag", 3.0);
  if (flags.get_bool("thermal")) {
    noise.thermal = device::ThermalParams{};
  }

  // Fault plan: explicit JSON (--faults) or a named scenario scaled to the
  // round schedule's total deadline budget (--scenario).
  double horizon = 0.0;
  for (const core::RoundSpec& r : rounds) {
    horizon += r.deadline.value();
  }
  std::optional<faults::FaultPlan> plan;
  if (!cli::load_fault_plan(flags, seed, horizon, plan)) {
    return usage(argv[0]);
  }
  std::optional<faults::FaultInjector> injector;
  std::unique_ptr<faults::DeviceFaultChannel> channel;
  if (plan) {
    injector.emplace(*plan, seed);
    channel = injector->make_device_channel(0);
  }

  // Telemetry must be installed before any instrumented component (the
  // thread pool caches metric handles at construction) and — because the
  // pool is declared after — outlives everything that uses it.
  cli::TelemetrySession session(flags);
  if (telemetry::RunRecorder* recorder = session.recorder()) {
    telemetry::JsonValue run_start = telemetry::JsonValue::object();
    run_start.set("device", model.name())
        .set("task", task.name)
        .set("controller", flags.get("controller", "bofl"))
        .set("rounds", task.num_rounds)
        .set("ratio", ratio)
        .set("seed", seed)
        .set("simd_level", std::string(linalg::simd::to_string(
                               linalg::simd::active_level())));
    recorder->emit("run_start", std::move(run_start));
  }

  // Worker pool for MBO candidate scoring (deterministic for any size;
  // 0 = one worker per hardware thread).  Scoped so its destructor — which
  // finalizes the pool's telemetry gauges — runs before the summary below
  // is rendered.
  core::TaskResult result;
  {
    runtime::ThreadPool pool(flags.get_count("threads", 0));

    // The paper's single-device protocol: τ exactly as given (no cap).
    core::BoflOptions options;
    options.tau = Seconds{flags.get_double("tau", 5.0)};
    const std::unique_ptr<core::PaceController> controller =
        core::make_controller(*kind, model, task.profile, noise, options, seed,
                              std::nullopt);
    if (auto* bofl = dynamic_cast<core::BoflController*>(controller.get())) {
      bofl->set_parallel_pool(&pool);
      const std::string state_path = flags.get("load-state", "");
      if (!state_path.empty()) {
        const priors::KnowledgeStore store =
            priors::KnowledgeStore::from_file(state_path);
        const priors::ClusterKey key =
            priors::ClusterKey::of(model, task.profile);
        const auto found = store.clusters().find(key);
        BOFL_REQUIRE(found != store.clusters().end(),
                     "no " + key.label() + " state in " + state_path);
        if (found->second.snapshot.fits_surrogates()) {
          bofl->import_state(found->second.snapshot.observations);
          std::printf("resumed from %s (phase %d)\n", state_path.c_str(),
                      static_cast<int>(bofl->phase()));
        } else {
          std::printf("%s holds too few observations to resume from; "
                      "starting cold\n",
                      state_path.c_str());
        }
      }
    }
    if (channel) {
      controller->install_fault_model(channel.get());
      const std::string faults_path = flags.get("faults", "");
      std::printf("fault plan: %s (%zu faults, seed %llu)\n",
                  plan->name.empty() ? faults_path.c_str() : plan->name.c_str(),
                  plan->faults.size(),
                  static_cast<unsigned long long>(plan->seed));
    }

    std::printf("device=%s task=%s controller=%s ratio=%.2f rounds=%lld "
                "seed=%llu jobs/round=%lld\n",
                model.name().c_str(), task.name.c_str(),
                std::string(controller->name()).c_str(), ratio,
                static_cast<long long>(task.num_rounds),
                static_cast<unsigned long long>(seed),
                static_cast<long long>(task.jobs_per_round()));

    // Fault events queue inside the channel during each round; the hook
    // drains them serially, per round, into the telemetry stream.
    std::size_t fault_events = 0;
    const core::RoundHook drain =
        channel ? core::RoundHook([&](const core::RoundTrace& trace) {
          for (const faults::FaultEvent& event :
               channel->drain_events(trace.index)) {
            faults::emit_fault_event(event);
            ++fault_events;
          }
        })
                : core::RoundHook{};
    result = core::run_task(*controller, rounds, drain);
    if (channel) {
      std::printf("fault events: %zu\n", fault_events);
    }

    const bool quiet = flags.get_bool("quiet");
    if (!quiet) {
      std::printf("%6s %6s %10s %10s %10s %6s\n", "round", "phase", "ddl[s]",
                  "used[s]", "energy[J]", "met");
      for (const core::RoundTrace& trace : result.rounds) {
        std::printf("%6lld %6d %10.2f %10.2f %10.1f %6s\n",
                    static_cast<long long>(trace.index + 1),
                    static_cast<int>(trace.phase), trace.deadline.value(),
                    trace.elapsed().value(), trace.energy().value(),
                    trace.deadline_met() ? "yes" : "MISS");
      }
    }

    const std::string csv_path = flags.get("csv", "");
    if (!csv_path.empty()) {
      CsvWriter csv(csv_path, {"round", "phase", "deadline_s", "elapsed_s",
                               "energy_J", "mbo_energy_J", "deadline_met"});
      for (const core::RoundTrace& trace : result.rounds) {
        csv.write_row(std::vector<double>{
            static_cast<double>(trace.index + 1),
            static_cast<double>(static_cast<int>(trace.phase)),
            trace.deadline.value(), trace.elapsed().value(),
            trace.energy().value(), trace.mbo_energy.value(),
            trace.deadline_met() ? 1.0 : 0.0});
      }
      std::printf("trace written to %s (%zu rows)\n", csv_path.c_str(),
                  csv.rows_written());
    }

    std::printf(
        "\ntotal: training %.0f J + MBO %.0f J over %zu rounds; deadlines %s\n",
        result.total_training_energy().value(),
        result.total_mbo_energy().value(), result.rounds.size(),
        result.all_deadlines_met() ? "all met" : "MISSED");
    const std::string save_path = flags.get("save-state", "");
    if (!save_path.empty()) {
      if (auto* bofl = dynamic_cast<core::BoflController*>(controller.get())) {
        priors::KnowledgeStore store;
        store.contribute(
            priors::ClusterKey::of(model, task.profile),
            priors::distill(*bofl,
                            static_cast<std::int64_t>(result.rounds.size())));
        store.save(save_path);
        std::printf("state saved to %s (%zu configurations)\n",
                    save_path.c_str(), bofl->export_state().size());
      } else {
        std::fprintf(stderr,
                     "--save-state only applies to the bofl controller\n");
      }
    }
    // End of the pool's scope: workers join and the pool publishes its final
    // utilization gauge before the telemetry summary is emitted.
  }
  std::printf("phases 1/2/3: %lld/%lld/%lld rounds\n",
              static_cast<long long>(result.rounds_in_phase(
                  core::Phase::kSafeRandomExploration)),
              static_cast<long long>(
                  result.rounds_in_phase(core::Phase::kParetoConstruction)),
              static_cast<long long>(
                  result.rounds_in_phase(core::Phase::kExploitation)));
  if (telemetry::RunRecorder* recorder = session.recorder()) {
    telemetry::JsonValue run_end = telemetry::JsonValue::object();
    run_end.set("training_energy_j", result.total_training_energy().value())
        .set("mbo_energy_j", result.total_mbo_energy().value())
        .set("mbo_latency_s", result.total_mbo_latency().value())
        .set("rounds", result.rounds.size())
        .set("all_deadlines_met", result.all_deadlines_met());
    recorder->emit("run_end", std::move(run_end));
  }
  session.finish();
  return result.all_deadlines_met() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value or spec fails a precondition (BOFL_REQUIRE): name it,
  // print the usage text and exit 2, as for an unknown flag.
  try {
    return run_sim(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return usage(argv[0]);
  }
}
