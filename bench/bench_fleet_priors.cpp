// Two-generation knowledge-plane benchmark (ISSUE 7 success metric): train
// a store on a cold fleet, warm-start a fresh fleet from it, and gate the
// warm-start collapse.
//
//   bench_fleet_priors [--clients N] [--rounds R] [--cohort F] [--ratio R]
//                      [--threads N] [--min-speedup X]
//
// Stages (each is a hard gate — the bench exits 1 on violation):
//   1. Cold reference run (no store attached).
//   2. Generation 1: same fleet with an EMPTY store attached — every
//      cluster is unknown, so admission declines and the trace hash must
//      equal the cold reference bit for bit; the run distills one snapshot
//      per cluster into the store.
//   3. Store serialization round-trip: to_json → from_json → to_json must
//      be byte-identical (the cross-generation persistence contract).
//   4. Generation 2: a fresh fleet warm-started from the store under
//      kVerify.  Gates: every cluster admitted, exploration rounds ≥
//      --min-speedup (default 5) times fewer than cold, cumulative energy
//      (training + MBO) strictly lower than cold.
//   5. kCold differential guarantee: the POPULATED store attached under
//      kCold must reproduce the cold reference hash exactly and leave the
//      store untouched.
#include <cstdio>
#include <string>
#include <utility>

#include "common/flags.hpp"
#include "device/device_model.hpp"
#include "figure_common.hpp"
#include "fleet/fleet_engine.hpp"
#include "priors/knowledge_store.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace bofl;

struct RunOutcome {
  std::uint64_t trace_hash = 0;
  std::uint64_t exploration_rounds = 0;
  std::uint32_t warm_clusters = 0;
  double energy_j = 0.0;  ///< training + MBO, cumulative over the run
};

RunOutcome run_fleet(const fleet::FleetConfig& config) {
  fleet::FleetEngine engine(config);
  const fleet::FleetResult result = engine.run();
  RunOutcome out;
  out.trace_hash = result.trace_hash;
  out.exploration_rounds = result.exploration_rounds;
  out.warm_clusters = result.warm_clusters;
  out.energy_j = result.total_energy_j() + result.total_mbo_energy_j();
  return out;
}

bool gate(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const auto clients = static_cast<std::size_t>(flags.get_int("clients", 2000));
  const std::int64_t rounds = flags.get_int("rounds", 24);
  const double cohort = flags.get_double("cohort", 0.5);
  const double ratio = flags.get_double("ratio", 8.0);
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  const double min_speedup = flags.get_double("min-speedup", 5.0);

  bench::print_header(
      "Fleet knowledge plane: two-generation warm start (src/priors)",
      "gen 1 trains the store cold; gen 2 must collapse exploration >= "
      "min-speedup x and spend less energy; kCold must stay bit-identical");

  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  fleet::FleetConfig base;
  base.num_clients = clients;
  base.rounds = rounds;
  base.cohort_fraction = cohort;  // deep trajectories: most clients replay
  base.deadline_ratio = ratio;    // past the canonical exploration prefix
  base.seed = 7;
  base.threads = threads;
  base.clusters.push_back({&agx, device::vit_profile(), 0.6});
  base.clusters.push_back({&tx2, device::lstm_profile(), 0.4});

  // Stage 1: cold reference.
  const RunOutcome cold = run_fleet(base);
  std::printf("\ncold:  hash=%016llx exploration=%llu energy=%.0f J\n",
              static_cast<unsigned long long>(cold.trace_hash),
              static_cast<unsigned long long>(cold.exploration_rounds),
              cold.energy_j);

  // Stage 2: generation 1 — empty store, kVerify.  Unknown clusters run
  // cold; the run publishes one distilled snapshot per cluster.
  priors::KnowledgeStore store;
  fleet::FleetConfig gen1 = base;
  gen1.knowledge = &store;
  gen1.prior_policy = priors::PriorPolicy::kVerify;
  const RunOutcome first = run_fleet(gen1);
  std::printf("gen 1: hash=%016llx exploration=%llu clusters=%zu\n",
              static_cast<unsigned long long>(first.trace_hash),
              static_cast<unsigned long long>(first.exploration_rounds),
              store.num_clusters());

  // Stage 3: serialization round-trip.
  const std::string json = store.to_json();
  const priors::KnowledgeStore reloaded =
      priors::KnowledgeStore::from_json(json);
  const bool roundtrip_stable = reloaded.to_json() == json;

  // Stage 4: generation 2 — fresh fleet, warm from the reloaded store.
  priors::KnowledgeStore gen2_store = reloaded;
  fleet::FleetConfig gen2 = base;
  gen2.knowledge = &gen2_store;
  gen2.prior_policy = priors::PriorPolicy::kVerify;
  const RunOutcome warm = run_fleet(gen2);
  const double speedup =
      warm.exploration_rounds == 0
          ? static_cast<double>(cold.exploration_rounds)
          : static_cast<double>(cold.exploration_rounds) /
                static_cast<double>(warm.exploration_rounds);
  std::printf(
      "gen 2: hash=%016llx exploration=%llu (%.1fx fewer) "
      "energy=%.0f J (cold %.0f J) warm clusters=%u/%zu\n",
      static_cast<unsigned long long>(warm.trace_hash),
      static_cast<unsigned long long>(warm.exploration_rounds), speedup,
      warm.energy_j, cold.energy_j, warm.warm_clusters, base.clusters.size());

  // Stage 5: kCold differential guarantee against the populated store.
  priors::KnowledgeStore frozen = reloaded;
  const std::string frozen_before = frozen.to_json();
  fleet::FleetConfig cold_with_store = base;
  cold_with_store.knowledge = &frozen;
  cold_with_store.prior_policy = priors::PriorPolicy::kCold;
  const RunOutcome differential = run_fleet(cold_with_store);

  std::printf("\ngates:\n");
  bool ok = true;
  ok &= gate(first.trace_hash == cold.trace_hash,
             "gen 1 (empty store) trace bit-identical to cold");
  ok &= gate(store.num_clusters() == base.clusters.size(),
             "gen 1 distilled every cluster");
  ok &= gate(roundtrip_stable, "store JSON round-trip byte-identical");
  ok &= gate(warm.warm_clusters == base.clusters.size(),
             "gen 2 admitted every cluster's prior");
  ok &= gate(speedup >= min_speedup,
             "gen 2 exploration rounds >= min-speedup x fewer");
  ok &= gate(warm.energy_j < cold.energy_j,
             "gen 2 cumulative energy below cold");
  ok &= gate(differential.trace_hash == cold.trace_hash,
             "kCold with populated store bit-identical to cold");
  ok &= gate(frozen.to_json() == frozen_before,
             "kCold left the store untouched");

  telemetry::JsonValue metrics = telemetry::JsonValue::object();
  metrics.set("clients", clients)
      .set("rounds", rounds)
      .set("cohort_fraction", cohort)
      .set("deadline_ratio", ratio)
      .set("clusters", base.clusters.size())
      .set("cold_exploration_rounds",
           static_cast<double>(cold.exploration_rounds))
      .set("warm_exploration_rounds",
           static_cast<double>(warm.exploration_rounds))
      .set("exploration_speedup", speedup)
      .set("cold_energy_j", cold.energy_j)
      .set("warm_energy_j", warm.energy_j)
      .set("energy_saving_fraction",
           cold.energy_j > 0.0 ? 1.0 - warm.energy_j / cold.energy_j : 0.0)
      .set("kcold_bit_identical", differential.trace_hash == cold.trace_hash)
      .set("passed", ok);
  bench::write_bench_json("fleet_priors", std::move(metrics));
  std::printf("\nresult: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
