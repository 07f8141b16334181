#include "scenarios/fleet_scenario_runner.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bo/mbo_engine.hpp"
#include "core/bofl_controller.hpp"
#include "device/device_model.hpp"
#include "device/workload.hpp"
#include "pareto/hypervolume.hpp"

namespace bofl::scenarios {

namespace {

/// Fixed hypervolume reference for one (cluster, generation): 1.5x the
/// component-wise worst true per-job (energy, latency) over the cluster's
/// CURRENT cost surface.  Recomputed after a workload switch — the new
/// surface has its own worst point, and cross-generation areas are never
/// compared anyway.
pareto::Point2 fixed_reference(const fleet::ClusterEngine& cluster) {
  pareto::Point2 worst;
  const device::FlatPerfTable table =
      device::FlatPerfTable::build(cluster.model(), cluster.profile());
  for (std::size_t flat = 0; flat < table.size(); ++flat) {
    worst.f1 = std::max(worst.f1, table.energy_j[flat]);
    worst.f2 = std::max(worst.f2, table.latency_s[flat]);
  }
  return {1.5 * worst.f1, 1.5 * worst.f2};
}

/// Per-cluster audit cursor: how far into the trajectory the never-miss
/// sweep has looked, and which generation that position belongs to (a
/// workload switch clears the trajectory, so the cursor restarts).
struct AuditCursor {
  std::size_t generation = 0;
  std::size_t next_entry = 0;
  pareto::Point2 reference;
  bool reference_valid = false;
};

void audit_cluster(const fleet::ClusterEngine& cluster, std::int64_t round,
                   AuditCursor& cursor, std::vector<ClusterRoundSample>& out,
                   std::vector<std::string>& violations) {
  if (cluster.generation() != cursor.generation) {
    cursor.generation = cluster.generation();
    cursor.next_entry = 0;
    cursor.reference_valid = false;
  }
  for (; cursor.next_entry < cluster.size(); ++cursor.next_entry) {
    const fleet::ClusterEngine::RoundEntry& entry =
        cluster.entry(cursor.next_entry);
    if (entry.feasible && entry.elapsed_us > entry.deadline_us) {
      std::ostringstream msg;
      msg << "cluster " << cluster.index() << " gen " << cursor.generation
          << " entry " << cursor.next_entry << " (round " << round
          << "): pessimistically feasible but elapsed " << entry.elapsed_us
          << " us > deadline " << entry.deadline_us << " us";
      violations.push_back(msg.str());
    }
  }
  ClusterRoundSample sample;
  sample.round = round;
  sample.generation = cursor.generation;
  sample.entries = cluster.size();
  if (const core::BoflController* controller =
          cluster.canonical_controller()) {
    if (!cursor.reference_valid) {
      cursor.reference = fixed_reference(cluster);
      cursor.reference_valid = true;
    }
    sample.hypervolume = pareto::hypervolume_2d(
        controller->engine().observed_front(), cursor.reference);
  }
  out.push_back(sample);
}

}  // namespace

std::string FleetPopulationResult::check_no_feasible_miss() const {
  return feasible_misses.empty() ? std::string{} : feasible_misses.front();
}

std::string FleetPopulationResult::check_monotone_hypervolume() const {
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const std::vector<ClusterRoundSample>& samples = clusters[c];
    for (std::size_t i = 1; i < samples.size(); ++i) {
      if (samples[i].generation != samples[i - 1].generation) {
        continue;  // new surface, areas not comparable
      }
      if (samples[i].hypervolume + 1e-9 < samples[i - 1].hypervolume) {
        std::ostringstream msg;
        msg << "cluster " << c << " gen " << samples[i].generation
            << ": hypervolume regressed at round " << samples[i].round << ": "
            << samples[i - 1].hypervolume << " -> " << samples[i].hypervolume;
        return msg.str();
      }
    }
  }
  return {};
}

double FleetPopulationResult::total_energy_j() const {
  return fleet.total_energy_j() + fleet.total_mbo_energy_j();
}

double FleetPopulationResult::energy_per_participation_j() const {
  const std::uint64_t participations = fleet.total_participants();
  return participations == 0
             ? 0.0
             : total_energy_j() / static_cast<double>(participations);
}

FleetPopulationResult run_fleet_population(
    const faults::FleetScenario& scenario,
    const FleetPopulationOptions& opts) {
  // The models must outlive the engine; they live on this frame, the
  // engine below.
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();

  fleet::FleetConfig config;
  config.num_clients = opts.num_clients;
  config.cohort_fraction = opts.cohort_fraction;
  config.jobs_per_round = opts.jobs_per_round;
  config.deadline_ratio = opts.deadline_ratio;
  config.seed = opts.seed;
  config.shards = opts.shards;
  config.threads = opts.threads;
  // Pinned: participants replay canonical entries exactly, so population
  // miss counters reduce to the trajectory verdicts the audit sweeps.
  config.heterogeneity_cv = 0.0;
  config.round_noise_cv = 0.0;
  config.scenario = scenario;
  config.knowledge = opts.knowledge;
  config.prior_policy = opts.prior_policy;
  if (opts.mix == "agx-vit") {
    config.clusters.push_back({&agx, device::vit_profile(), 1.0});
  } else if (opts.mix == "edge-mix") {
    config.clusters.push_back({&agx, device::vit_profile(), 0.40});
    config.clusters.push_back({&agx, device::resnet50_profile(), 0.20});
    config.clusters.push_back({&tx2, device::lstm_profile(), 0.25});
    config.clusters.push_back({&tx2, device::vit_profile(), 0.15});
  } else {
    throw std::invalid_argument("unknown fleet mix: " + opts.mix);
  }
  const std::int64_t steps = opts.stepped ? opts.rounds : 1;
  config.rounds = opts.stepped ? 1 : opts.rounds;

  fleet::FleetEngine engine(std::move(config));

  FleetPopulationResult result;
  result.scenario = scenario;
  result.clusters.resize(engine.num_clusters());
  std::vector<AuditCursor> cursors(engine.num_clusters());

  std::vector<fleet::FleetRoundStats> all_rounds;
  for (std::int64_t step = 0; step < steps; ++step) {
    fleet::FleetResult chunk = engine.run();
    all_rounds.insert(all_rounds.end(), chunk.rounds.begin(),
                      chunk.rounds.end());
    const std::int64_t round = all_rounds.empty() ? 0 : all_rounds.back().round;
    for (std::size_t c = 0; c < engine.num_clusters(); ++c) {
      audit_cluster(engine.cluster(c), round, cursors[c], result.clusters[c],
                    result.feasible_misses);
    }
    if (step == steps - 1) {
      // Footprint, telemetry and the per-cluster totals of the final chunk
      // carry over; the round list and its hash are rebuilt from the full
      // concatenation below.
      result.fleet = std::move(chunk);
    }
  }
  result.fleet.rounds = std::move(all_rounds);
  result.fleet.trace_hash = fleet::fold_trace_hash(result.fleet.rounds, true);
  return result;
}

FleetPopulationResult run_named_fleet_population(
    const std::string& name, const FleetPopulationOptions& opts) {
  return run_fleet_population(faults::make_fleet_scenario(name, opts.seed),
                              opts);
}

std::string check_energy_regret(const FleetPopulationResult& run,
                                const FleetPopulationResult& steady,
                                double bound_factor) {
  const double run_cost = run.energy_per_participation_j();
  const double steady_cost = steady.energy_per_participation_j();
  if (steady_cost <= 0.0) {
    return "steady run has no participations to compare against";
  }
  if (run_cost > bound_factor * steady_cost) {
    std::ostringstream msg;
    msg << "energy regret exceeded: " << run_cost
        << " J/participation under scenario '" << run.scenario.name
        << "' vs steady " << steady_cost << " J/participation (bound "
        << bound_factor << "x)";
    return msg.str();
  }
  return {};
}

}  // namespace bofl::scenarios
