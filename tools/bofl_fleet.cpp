// bofl_fleet — the command-line driver for fleet-scale experiments.
//
//   bofl_fleet [--clients N] [--rounds N] [--cohort F] [--jobs N]
//              [--ratio R] [--seed S]
//              [--controller bofl|performant|oracle|linear]
//              [--mix agx-vit|edge-mix|global-mix] [--shards N] [--threads N]
//              [--simd avx2|scalar]
//              [--het-cv CV] [--noise-cv CV] [--straggler-timeout K]
//              [--faults PLAN.json | --scenario NAME]
//              [--fleet-scenario SPEC.json|NAME] [--list-scenarios]
//              [--priors off|save|load] [--priors-path PATH]
//              [--prior-policy cold|verify|trust]
//              [--json PATH] [--quiet]
//              [--metrics-out PATH] [--metrics-summary]
//              [--assert-wall-s S] [--assert-rss-mb MB]
//
// Runs the sharded fleet engine (src/fleet): 10^5–10^6 BoFL clients in
// struct-of-arrays shards replaying per-cluster canonical trajectories, with
// event-driven round closes.  Prints the per-round fleet trace plus a
// summary (energy, phase occupancy, bytes/client, peak RSS, trace hash);
// --json writes the summary as JSON.  --assert-wall-s / --assert-rss-mb turn
// the run into a CI gate: exit nonzero when the measured wall time or peak
// RSS exceeds the ceiling.
//
// The fleet knowledge plane (src/priors) rides on --priors:
//   --priors save            run cold, then write the distilled per-cluster
//                            store to --priors-path (generation 1)
//   --priors load            load the store, warm-start each cluster under
//                            --prior-policy, publish back and re-save
//                            (generation 2)
//   --priors off  (default)  no knowledge plane
// With --prior-policy cold a loaded store is read-only and the run is
// bit-identical to --priors off (the differential guarantee).
//
// Fleet-population scenarios (--fleet-scenario) drive churn, diurnal
// cohort/deadline waves, mid-run workload switches and per-client battery
// budgets — pass a SPEC.json (see README "Fleet scenarios") or a built-in
// name (churn, diurnal, task-switch, battery-budget; --list-scenarios
// prints all of them).
//
// A quick 100k-client example (see README "Fleet engine"):
//
//   bofl_fleet --clients 100000 --rounds 20 --cohort 0.01 --threads 8
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "cli.hpp"
#include "faults/fleet_scenario.hpp"
#include "fleet/fleet_engine.hpp"
#include "linalg/simd/dispatch.hpp"
#include "priors/knowledge_store.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace bofl;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--clients N] [--rounds N] [--cohort F] [--jobs N]\n"
      "          [--ratio R] [--seed S] "
      "[--controller bofl|performant|oracle|linear]\n"
      "          [--mix agx-vit|edge-mix|global-mix] [--shards N] [--threads N]\n"
      "          [--simd avx2|scalar]\n"
      "          [--het-cv CV] [--noise-cv CV] [--straggler-timeout K]\n"
      "          [--faults PLAN.json | --scenario NAME]\n"
      "          [--fleet-scenario SPEC.json|NAME] [--list-scenarios]\n"
      "          [--priors off|save|load] [--priors-path PATH]\n"
      "          [--prior-policy cold|verify|trust]\n"
      "          [--json PATH] [--quiet]\n"
      "          [--metrics-out PATH] [--metrics-summary]\n"
      "          [--assert-wall-s S] [--assert-rss-mb MB]\n",
      argv0);
  return 2;
}

// Catalog of every scenario this driver understands: the fault scenarios
// behind --scenario (including hidden ones — operators debugging a fleet
// need the full list) and the fleet-population scenarios behind
// --fleet-scenario.
int list_scenarios() {
  cli::print_fault_scenarios();
  std::printf("\nfleet scenarios (--fleet-scenario NAME):\n");
  for (const std::string& name : faults::fleet_scenario_names()) {
    std::printf("  %-18s %s\n", name.c_str(),
                faults::fleet_scenario_description(name));
  }
  return 0;
}

int run_fleet(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (!cli::check_known_flags(
          flags,
          {"help", "clients", "rounds", "cohort", "jobs", "ratio", "seed",
           "controller", "mix", "shards", "threads", "simd", "het-cv",
           "noise-cv", "straggler-timeout", "faults", "scenario",
           "fleet-scenario", "list-scenarios", "priors", "priors-path",
           "prior-policy", "json", "quiet", "metrics-out", "metrics-summary",
           "assert-wall-s", "assert-rss-mb"})) {
    return usage(argv[0]);
  }
  if (flags.has("help")) {
    return usage(argv[0]);
  }
  if (flags.get_bool("list-scenarios")) {
    return list_scenarios();
  }
  if (!cli::apply_simd_flag(flags)) {
    return usage(argv[0]);
  }
  const std::optional<core::ControllerKind> kind =
      cli::parse_controller_flag(flags);
  if (!kind.has_value()) {
    return usage(argv[0]);
  }

  fleet::FleetConfig config;
  config.controller = *kind;
  config.num_clients = flags.get_count("clients", 100'000);
  config.rounds = flags.get_int("rounds", 100);
  config.cohort_fraction = flags.get_double("cohort", 0.01);
  config.jobs_per_round = flags.get_int("jobs", 60);
  config.deadline_ratio = flags.get_double("ratio", 8.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  config.shards = flags.get_count("shards", 0);
  config.threads = flags.get_count("threads", 0);
  config.heterogeneity_cv = flags.get_double("het-cv", 0.08);
  config.round_noise_cv = flags.get_double("noise-cv", 0.01);
  config.straggler_timeout = flags.get_double("straggler-timeout", 0.0);

  const std::string controller_name = flags.get("controller", "bofl");

  // The population mix.  Models live here for the engine's lifetime.
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  const device::DeviceModel phone = device::pixel_phone();
  const device::DeviceModel server = device::edge_server();
  const std::string mix = flags.get("mix", "agx-vit");
  if (mix == "agx-vit") {
    config.clusters.push_back({&agx, device::vit_profile(), 1.0});
  } else if (mix == "edge-mix") {
    config.clusters.push_back({&agx, device::vit_profile(), 0.40});
    config.clusters.push_back({&agx, device::resnet50_profile(), 0.20});
    config.clusters.push_back({&tx2, device::lstm_profile(), 0.25});
    config.clusters.push_back({&tx2, device::vit_profile(), 0.15});
  } else if (mix == "global-mix") {
    // The cross-tier population: phones dominate the count, edge boards
    // carry the mid-tier, a thin server slice anchors the fast tail.
    config.clusters.push_back({&phone, device::vit_profile(), 0.35});
    config.clusters.push_back({&phone, device::lstm_profile(), 0.20});
    config.clusters.push_back({&agx, device::vit_profile(), 0.20});
    config.clusters.push_back({&tx2, device::lstm_profile(), 0.15});
    config.clusters.push_back({&server, device::resnet50_profile(), 0.10});
  } else {
    std::fprintf(stderr, "unknown mix: %s\n", mix.c_str());
    return usage(argv[0]);
  }

  // Fault plan: explicit JSON or a named scenario scaled to the canonical
  // per-cluster horizon (rounds x mean deadline of the first cluster).
  const Seconds t_min = config.clusters.front().model->round_t_min(
      config.clusters.front().profile, config.jobs_per_round);
  const double horizon = static_cast<double>(config.rounds) * t_min.value() *
                         (1.0 + config.deadline_ratio) / 2.0;
  if (!cli::load_fault_plan(flags, config.seed, horizon, config.fault_plan)) {
    return usage(argv[0]);
  }

  // Fleet-population scenario: a SPEC.json path (anything with a path
  // separator or .json suffix) or a built-in name.  A spec embedding its own
  // fault list excludes --faults/--scenario (the engine refuses ambiguous
  // double fault sources; catch it here for a clean message).
  const std::string fleet_scenario_arg = flags.get("fleet-scenario", "");
  if (!fleet_scenario_arg.empty()) {
    const bool is_file =
        fleet_scenario_arg.find('/') != std::string::npos ||
        (fleet_scenario_arg.size() > 5 &&
         fleet_scenario_arg.compare(fleet_scenario_arg.size() - 5, 5,
                                    ".json") == 0);
    if (is_file) {
      config.scenario = faults::FleetScenario::from_json_file(
          fleet_scenario_arg);
    } else {
      config.scenario =
          faults::make_fleet_scenario(fleet_scenario_arg, config.seed);
    }
    if (!config.scenario->fault_plan.empty() &&
        config.fault_plan.has_value()) {
      std::fprintf(stderr,
                   "--fleet-scenario spec embeds a fault list; drop "
                   "--faults/--scenario\n");
      return usage(argv[0]);
    }
  }

  // Fleet knowledge plane.  The store outlives the engine (non-owning
  // pointer in the config).  "save" runs from an empty store — every cluster
  // is unknown, so admission declines and the run is bit-identical to
  // --priors off — and persists the distilled generation afterwards; "load"
  // warm-starts from the persisted store under --prior-policy and re-saves
  // the merged result (except under cold, which keeps the store read-only).
  const std::string priors_mode = flags.get("priors", "off");
  const std::string priors_path =
      flags.get("priors-path", "bofl_fleet_store.json");
  const std::string policy_name = flags.get("prior-policy", "verify");
  const std::optional<priors::PriorPolicy> policy =
      priors::prior_policy_from_string(policy_name);
  if (!policy.has_value()) {
    std::fprintf(stderr, "unknown prior policy: %s\n", policy_name.c_str());
    return usage(argv[0]);
  }
  std::optional<priors::KnowledgeStore> store;
  if (priors_mode == "save") {
    store.emplace();
    config.knowledge = &*store;
    config.prior_policy = priors::PriorPolicy::kVerify;
  } else if (priors_mode == "load") {
    store.emplace(priors::KnowledgeStore::from_file(priors_path));
    config.knowledge = &*store;
    config.prior_policy = *policy;
  } else if (priors_mode != "off") {
    std::fprintf(stderr, "unknown priors mode: %s\n", priors_mode.c_str());
    return usage(argv[0]);
  }
  const priors::PriorPolicy effective_policy = config.prior_policy;

  // Telemetry must be installed before the engine (it caches handles).
  cli::TelemetrySession session(flags);

  const std::string fleet_scenario_name =
      config.scenario.has_value() ? config.scenario->name : "";
  std::printf(
      "fleet: %zu clients, %lld rounds, cohort %.3f, controller=%s, mix=%s,\n"
      "       ratio=%.1f seed=%llu shards=%zu threads=%zu%s%s%s%s\n",
      config.num_clients, static_cast<long long>(config.rounds),
      config.cohort_fraction, controller_name.c_str(), mix.c_str(),
      config.deadline_ratio, static_cast<unsigned long long>(config.seed),
      config.shards, config.threads,
      config.fault_plan.has_value() ? " faults=" : "",
      config.fault_plan.has_value() ? config.fault_plan->name.c_str() : "",
      config.scenario.has_value() ? " fleet-scenario=" : "",
      fleet_scenario_name.c_str());

  const bool has_fleet_scenario = config.scenario.has_value();
  const auto t0 = std::chrono::steady_clock::now();
  fleet::FleetEngine engine(std::move(config));
  const fleet::FleetResult result = engine.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (!flags.get_bool("quiet")) {
    if (has_fleet_scenario) {
      std::printf("%6s %9s %9s %6s %6s %8s %8s %12s %10s %18s\n", "round",
                  "active", "cohort", "left", "back", "blocked", "missed",
                  "energy[J]", "wall[s]", "phase1/2/3");
      for (const fleet::FleetRoundStats& round : result.rounds) {
        std::printf("%6lld %9u %9u %6u %6u %8u %8u %12.1f %10.2f %6u/%u/%u\n",
                    static_cast<long long>(round.round + 1),
                    round.active_clients, round.participants, round.departed,
                    round.rejoined, round.battery_blocked, round.missed,
                    round.energy_j(), round.wall_s(), round.phase1,
                    round.phase2, round.phase3);
      }
    } else {
      std::printf("%6s %9s %8s %8s %6s %6s %12s %10s %18s\n", "round",
                  "cohort", "dropped", "missed", "late", "strag", "energy[J]",
                  "wall[s]", "phase1/2/3");
      for (const fleet::FleetRoundStats& round : result.rounds) {
        std::printf("%6lld %9u %8u %8u %6u %6u %12.1f %10.2f %6u/%u/%u\n",
                    static_cast<long long>(round.round + 1), round.participants,
                    round.dropped, round.missed, round.timed_out,
                    round.stragglers, round.energy_j(), round.wall_s(),
                    round.phase1, round.phase2, round.phase3);
      }
    }
  }

  const double rss_mb =
      static_cast<double>(result.peak_rss_bytes) / (1024.0 * 1024.0);
  std::printf(
      "\ntotal: training %.0f J + MBO %.0f J over %zu rounds, "
      "%llu participations\n"
      "rates: miss %.4f, timeout %.4f; phase-3 occupancy %.3f\n"
      "scale: %zu shards, %zu clusters, %.1f B/client SoA, "
      "peak RSS %.1f MB, wall %.2f s "
      "(control plane %.1f ms, data plane %.1f ms)\n"
      "priors: mode=%s policy=%s, %u warm clusters, "
      "%llu exploration rounds\n"
      "trace hash: %016llx\n",
      result.total_energy_j(), result.total_mbo_energy_j(),
      result.rounds.size(),
      static_cast<unsigned long long>(result.total_participants()),
      result.miss_rate(), result.timeout_rate(), result.phase3_fraction(),
      result.num_shards, result.num_clusters, result.bytes_per_client(),
      rss_mb, wall_s, result.control_plane_ms, result.data_plane_ms,
      priors_mode.c_str(),
      priors::to_string(effective_policy), result.warm_clusters,
      static_cast<unsigned long long>(result.exploration_rounds),
      static_cast<unsigned long long>(result.trace_hash));
  if (has_fleet_scenario) {
    std::printf(
        "scenario: %s — %llu departed, %llu rejoined, %llu state resets, "
        "%llu battery-blocked\n",
        fleet_scenario_name.c_str(),
        static_cast<unsigned long long>(result.total_departed()),
        static_cast<unsigned long long>(result.total_rejoined()),
        static_cast<unsigned long long>(result.total_resets()),
        static_cast<unsigned long long>(result.total_battery_blocked()));
  }

  if (store.has_value() &&
      (priors_mode == "save" ||
       effective_policy != priors::PriorPolicy::kCold)) {
    store->save(priors_path);
    std::printf("knowledge store written to %s (%zu clusters)\n",
                priors_path.c_str(), store->num_clusters());
  }

  const std::string json_path = flags.get("json", "");
  if (!json_path.empty()) {
    telemetry::JsonValue summary = telemetry::JsonValue::object();
    summary.set("clients", static_cast<double>(result.num_clients))
        .set("rounds", static_cast<double>(result.rounds.size()))
        .set("shards", static_cast<double>(result.num_shards))
        .set("clusters", static_cast<double>(result.num_clusters))
        .set("controller", controller_name)
        .set("mix", mix)
        .set("training_energy_j", result.total_energy_j())
        .set("mbo_energy_j", result.total_mbo_energy_j())
        .set("participations", static_cast<double>(result.total_participants()))
        .set("miss_rate", result.miss_rate())
        .set("timeout_rate", result.timeout_rate())
        .set("phase3_fraction", result.phase3_fraction())
        .set("bytes_per_client", result.bytes_per_client())
        .set("soa_bytes", static_cast<double>(result.soa_bytes))
        .set("peak_rss_bytes", static_cast<double>(result.peak_rss_bytes))
        .set("priors", priors_mode)
        .set("prior_policy", priors::to_string(effective_policy))
        .set("warm_clusters", static_cast<double>(result.warm_clusters))
        .set("exploration_rounds",
             static_cast<double>(result.exploration_rounds))
        .set("simd_level", std::string(linalg::simd::to_string(
                               linalg::simd::active_level())))
        .set("wall_s", wall_s)
        .set("control_plane_ms", result.control_plane_ms)
        .set("data_plane_ms", result.data_plane_ms)
        .set("select_ms", result.select_ms)
        .set("cost_ms", result.cost_ms)
        .set("close_ms", result.close_ms)
        .set("merge_ms", result.merge_ms);
    if (has_fleet_scenario) {
      summary.set("fleet_scenario", fleet_scenario_name)
          .set("departed", static_cast<double>(result.total_departed()))
          .set("rejoined", static_cast<double>(result.total_rejoined()))
          .set("state_resets", static_cast<double>(result.total_resets()))
          .set("battery_blocked",
               static_cast<double>(result.total_battery_blocked()));
    }
    char hash_hex[17];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(result.trace_hash));
    summary.set("trace_hash", std::string(hash_hex));
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::string text = summary.dump();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("summary written to %s\n", json_path.c_str());
  }

  session.finish();

  // CI ceilings: a fleet-smoke run fails loudly when it regresses.
  int status = 0;
  const double max_wall = flags.get_double("assert-wall-s", 0.0);
  if (max_wall > 0.0 && wall_s > max_wall) {
    std::fprintf(stderr, "FAIL: wall %.2f s exceeds ceiling %.2f s\n", wall_s,
                 max_wall);
    status = 1;
  }
  const double max_rss = flags.get_double("assert-rss-mb", 0.0);
  if (max_rss > 0.0 && rss_mb > max_rss) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB exceeds ceiling %.1f MB\n",
                 rss_mb, max_rss);
    status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  // A bad flag value or spec fails a precondition (BOFL_REQUIRE): name it,
  // print the usage text and exit 2, as for an unknown flag.
  try {
    return run_fleet(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return usage(argv[0]);
  }
}
