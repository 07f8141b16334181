// Fleet-scaling benchmark, two engines:
//
//   1. Per-object engine (fl::Simulation): sweep fleet size x worker count
//      and report per-round wall time, speedup over the serial run, and
//      parallel efficiency.  Checks the runtime's determinism contract as
//      it goes: every thread count must reproduce the serial run's total
//      energy and final accuracy bit-for-bit.
//   2. Sharded fleet engine (src/fleet): sweep fleet sizes into the 10^5–
//      10^6 range and report per-round wall time, microseconds per
//      client-round, SoA bytes per client (must stay flat), and peak RSS.
//      Each size re-runs re-sharded + parallel and compares trace hashes —
//      the engine's bit-identity contract.
//
//   3. Cluster control-plane sweep: clusters x threads wall-time cells on a
//      re-exploration workload (every cluster task-switches mid-run, so the
//      per-round GP/EHVI/ILP control plane is the dominant cost), with the
//      control-plane ms split out from the data-plane ms.  Each parallel
//      cell's trace hash must match the threads = 1 reference, and
//      the serial reference is compared against the committed baseline under
//      bench/baselines/ (target: >= 3x control-plane speedup at 8 threads on
//      the 16-cluster workload).
//
//   bench_fleet_scaling [--threads N] [--rounds R] [--clients-list 16,64]
//                       [--ratio 8.0] [--fleet-clients-list 1000,...]
//                       [--fleet-rounds N] [--million]
//                       [--cluster-list 4,16] [--cluster-rounds N]
//                       [--cluster-clients N] [--baseline PATH]
//
// --threads caps the sweep's largest worker count (0 / absent = one worker
// per hardware thread; the sweep always includes 1, 2, 4 when they fit).
// --ratio is the deadline ratio for BOTH engines: the default 8 keeps
// steady-state rounds in exploitation so the ILP/cache hot path is what's
// measured (a ratio of 2 pins clients in exploration and measures the wrong
// regime).  --million appends the 10^6-client x 100-round cell to the fleet
// sweep (minutes, off by default).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "device/device_model.hpp"
#include "faults/fleet_scenario.hpp"
#include "figure_common.hpp"
#include "fl/simulation.hpp"
#include "fleet/fleet_engine.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/json_reader.hpp"
#include "telemetry/process.hpp"

namespace {

using namespace bofl;

fl::FlSimulationConfig base_config(std::size_t clients, std::int64_t rounds,
                                   std::size_t threads, double ratio) {
  fl::FlSimulationConfig config;
  config.num_clients = clients;
  config.clients_per_round = std::max<std::size_t>(1, clients / 2);
  config.rounds = rounds;
  config.shard_examples = 128;
  config.seed = 7;
  config.threads = threads;
  config.deadline_ratio = ratio;
  return config;
}

std::vector<std::size_t> parse_list(const std::string& csv,
                                    std::vector<std::size_t> fallback) {
  if (csv.empty()) {
    return fallback;
  }
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.npos : comma - pos);
    out.push_back(static_cast<std::size_t>(std::stoull(item)));
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return out;
}

fleet::FleetConfig fleet_config(std::size_t clients, std::int64_t rounds,
                                double ratio, std::size_t shards,
                                std::size_t threads) {
  fleet::FleetConfig config;
  config.num_clients = clients;
  config.rounds = rounds;
  config.cohort_fraction = 0.01;
  config.deadline_ratio = ratio;
  config.seed = 7;
  config.shards = shards;
  config.threads = threads;
  return config;
}

/// Serial-control-plane ms/round for `clusters` from the committed baseline's
/// cluster_sweep rows, or 0 when the baseline lacks that row.
double baseline_serial_cp_ms(const telemetry::JsonNode& metrics,
                             std::size_t clusters) {
  const telemetry::JsonNode* rows = metrics.find("cluster_sweep");
  if (rows == nullptr || rows->type != telemetry::JsonNode::Type::kArray) {
    return 0.0;
  }
  for (const telemetry::JsonNode& row : rows->array) {
    const telemetry::JsonNode* serial = row.find("serial");
    if (telemetry::number_field(row, "clusters", -1.0) ==
            static_cast<double>(clusters) &&
        serial != nullptr && serial->boolean) {
      return telemetry::number_field(row, "control_plane_ms_per_round", 0.0);
    }
  }
  return 0.0;
}

/// Committed-baseline metrics, or nullopt (with a printed note) when the
/// baseline is missing/unreadable — the sweep still runs, only the
/// vs-baseline column is skipped.
std::optional<telemetry::JsonNode> load_baseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("  (baseline %s not found; vs-baseline column skipped)\n",
                path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  telemetry::JsonNode root;
  try {
    root = telemetry::parse_json(buffer.str());
  } catch (const std::exception& e) {
    std::printf("  (baseline %s unreadable: %s; vs-baseline column skipped)\n",
                path.c_str(), e.what());
    return std::nullopt;
  }
  const telemetry::JsonNode* base = root.find("metrics");
  if (base == nullptr) {
    std::printf("  (baseline %s has no metrics; vs-baseline column skipped)\n",
                path.c_str());
    return std::nullopt;
  }
  return *base;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const auto rounds = flags.get_int("rounds", 3);
  const double ratio = flags.get_double("ratio", 8.0);
  const std::size_t max_threads =
      flags.get_int("threads", 0) > 0
          ? static_cast<std::size_t>(flags.get_int("threads", 0))
          : runtime::hardware_threads();
  const std::vector<std::size_t> fleets =
      parse_list(flags.get("clients-list", ""), {16, 64});

  std::vector<std::size_t> thread_counts;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              max_threads}) {
    if (t <= max_threads &&
        (thread_counts.empty() || t > thread_counts.back())) {
      thread_counts.push_back(t);
    }
  }

  bench::print_header(
      "Fleet scaling: round wall-time vs worker count (BoFL clients, "
      "heterogeneous AGX/TX2 fleet)",
      "speedup is vs the threads=1 run of the same fleet; results must be "
      "bit-identical across thread counts");

  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  const std::vector<const device::DeviceModel*> devices{&agx, &tx2};

  bool deterministic = true;
  telemetry::JsonValue cells = telemetry::JsonValue::array();
  for (const std::size_t clients : fleets) {
    std::printf("\n%zu clients, %zu/round, %lld rounds (per-object engine):\n",
                clients, std::max<std::size_t>(1, clients / 2),
                static_cast<long long>(rounds));
    std::printf("  %8s %14s %10s %12s\n", "threads", "round [ms]", "speedup",
                "efficiency");
    double serial_ms = 0.0;
    Joules serial_energy{0.0};
    double serial_accuracy = 0.0;
    for (const std::size_t threads : thread_counts) {
      fl::FederatedSimulation sim(
          devices, base_config(clients, rounds, threads, ratio));
      const auto start = std::chrono::steady_clock::now();
      const fl::FlSimulationResult result = sim.run();
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count() /
          static_cast<double>(rounds);
      if (threads == 1) {
        serial_ms = ms;
        serial_energy = result.total_energy();
        serial_accuracy = result.final_accuracy();
      }
      const bool same =
          result.total_energy().value() == serial_energy.value() &&
          result.final_accuracy() == serial_accuracy;
      deterministic = deterministic && same;
      const double speedup = serial_ms / ms;
      std::printf("  %8zu %14.1f %9.2fx %11.0f%%%s\n", threads, ms, speedup,
                  100.0 * speedup / static_cast<double>(threads),
                  same ? "" : "  [MISMATCH vs threads=1]");
      telemetry::JsonValue cell = telemetry::JsonValue::object();
      cell.set("engine", "per-object")
          .set("clients", clients)
          .set("threads", threads)
          .set("round_ms", ms)
          .set("speedup", speedup)
          .set("efficiency",
               speedup / static_cast<double>(threads))
          .set("deterministic", same);
      cells.push_back(std::move(cell));
    }
  }

  // --- Sharded fleet engine: size sweep with bit-identity re-check. -------
  const auto fleet_rounds = flags.get_int("fleet-rounds", 20);
  std::vector<std::size_t> fleet_sizes = parse_list(
      flags.get("fleet-clients-list", ""), {1'000, 10'000, 100'000});
  std::int64_t million_rounds = 0;
  if (flags.get_bool("million")) {
    fleet_sizes.push_back(1'000'000);
    million_rounds = 100;  // the full paper-scale curve
  }

  std::printf("\nsharded fleet engine (cohort 1%%, ratio %.1f, "
              "%lld rounds/size):\n", ratio,
              static_cast<long long>(fleet_rounds));
  std::printf("  %10s %12s %16s %10s %10s %10s\n", "clients", "round [ms]",
              "us/client-round", "B/client", "RSS [MB]", "queue");
  for (const std::size_t clients : fleet_sizes) {
    const std::int64_t size_rounds =
        clients >= 1'000'000 && million_rounds > 0 ? million_rounds
                                                   : fleet_rounds;
    // Reference trace: serial, single shard.
    fleet::FleetEngine reference(
        fleet_config(clients, size_rounds, ratio, 1, 1));
    const fleet::FleetResult ref_result = reference.run();
    // Measured run: auto shards, full worker pool.
    fleet::FleetEngine engine(
        fleet_config(clients, size_rounds, ratio, 0, max_threads));
    const auto start = std::chrono::steady_clock::now();
    const fleet::FleetResult result = engine.run();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count() /
        static_cast<double>(size_rounds);
    const bool same = result.trace_hash == ref_result.trace_hash;
    deterministic = deterministic && same;
    const double us_per_client_round =
        1000.0 * ms / static_cast<double>(clients);
    const double rss_mb =
        static_cast<double>(result.peak_rss_bytes) / (1024.0 * 1024.0);
    std::printf("  %10zu %12.1f %16.3f %10.1f %10.1f %10llu%s\n", clients, ms,
                us_per_client_round, result.bytes_per_client(), rss_mb,
                static_cast<unsigned long long>(result.max_queue_depth),
                same ? "" : "  [MISMATCH vs shards=1/threads=1]");
    telemetry::JsonValue cell = telemetry::JsonValue::object();
    cell.set("engine", "fleet")
        .set("clients", clients)
        .set("deadline_ratio", ratio)
        .set("rounds", size_rounds)
        .set("shards", result.num_shards)
        .set("threads", max_threads)
        .set("round_ms", ms)
        .set("us_per_client_round", us_per_client_round)
        .set("bytes_per_client", result.bytes_per_client())
        .set("peak_rss_bytes", static_cast<double>(result.peak_rss_bytes))
        .set("max_queue_depth",
             static_cast<double>(result.max_queue_depth))
        .set("miss_rate", result.miss_rate())
        .set("phase3_fraction", result.phase3_fraction())
        .set("deterministic", same);
    cells.push_back(std::move(cell));
  }

  // --- Cluster control-plane sweep: clusters x threads on a re-exploration
  // workload.  Every cell runs the task-switch scenario (all clusters forced
  // back into exploration at round 10) over a 4-device-class mix, so
  // per-round cost is dominated by the canonical controllers' GP/EHVI/ILP
  // work — exactly what the parallel control plane fans out.  The serial
  // reference (threads=1) anchors both the in-run speedup and the
  // comparison against the committed baseline.
  const auto cluster_rounds = flags.get_int("cluster-rounds", 12);
  const std::size_t cluster_clients =
      static_cast<std::size_t>(flags.get_int("cluster-clients", 20'000));
  const std::vector<std::size_t> cluster_counts =
      parse_list(flags.get("cluster-list", ""), {4, 16});
  const std::string baseline_path =
      flags.get("baseline",
                "bench/baselines/BENCH_fleet_control_plane_baseline.json");

  bench::print_header(
      "Cluster control-plane sweep: clusters x threads (task-switch "
      "re-exploration workload)",
      "control-plane ms is the per-round serial section (extension + "
      "needed-depth + fault flush); every parallel cell must reproduce the "
      "serial trace hash");
  const std::optional<telemetry::JsonNode> baseline =
      load_baseline(baseline_path);

  const device::DeviceModel phone = device::pixel_phone();
  const device::DeviceModel edge = device::edge_server();
  const std::vector<const device::DeviceModel*> sweep_devices{&agx, &tx2,
                                                              &phone, &edge};
  const std::vector<device::WorkloadProfile> sweep_profiles{
      device::vit_profile(), device::lstm_profile(),
      device::resnet50_profile()};

  telemetry::JsonValue sweep_rows = telemetry::JsonValue::array();
  for (const std::size_t nclusters : cluster_counts) {
    const auto make_config = [&](std::size_t threads) {
      fleet::FleetConfig config = fleet_config(
          cluster_clients, cluster_rounds, ratio, 0, threads);
      config.scenario = faults::make_fleet_scenario("task-switch", 7);
      for (std::size_t c = 0; c < nclusters; ++c) {
        config.clusters.push_back({sweep_devices[c % sweep_devices.size()],
                                   sweep_profiles[(c / sweep_devices.size()) %
                                                  sweep_profiles.size()],
                                   1.0});
      }
      return config;
    };
    const double base_cp_ms =
        baseline.has_value() ? baseline_serial_cp_ms(*baseline, nclusters)
                             : 0.0;

    std::printf("\n%zu clusters, %zu clients, %lld rounds:\n", nclusters,
                cluster_clients, static_cast<long long>(cluster_rounds));
    std::printf("  %8s %8s %16s %14s %10s %12s\n", "threads", "mode",
                "control [ms/rd]", "data [ms/rd]", "speedup", "vs baseline");

    // Serial control-plane reference.
    fleet::FleetEngine reference(make_config(1));
    const fleet::FleetResult ref = reference.run();
    const double rounds_d = static_cast<double>(cluster_rounds);
    const double serial_cp = ref.control_plane_ms / rounds_d;
    const double serial_dp = ref.data_plane_ms / rounds_d;
    std::printf("  %8d %8s %16.2f %14.2f %10s %11.2fx\n", 1, "serial",
                serial_cp, serial_dp, "--",
                base_cp_ms > 0.0 ? base_cp_ms / serial_cp : 0.0);
    {
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("clusters", nclusters)
          .set("threads", std::size_t{1})
          .set("serial", true)
          .set("control_plane_ms_per_round", serial_cp)
          .set("data_plane_ms_per_round", serial_dp)
          .set("deterministic", true);
      if (base_cp_ms > 0.0) {
        row.set("speedup_vs_baseline", base_cp_ms / serial_cp);
      }
      sweep_rows.push_back(std::move(row));
    }

    for (const std::size_t threads : thread_counts) {
      fleet::FleetEngine engine(make_config(threads));
      const fleet::FleetResult result = engine.run();
      const bool same = result.trace_hash == ref.trace_hash;
      deterministic = deterministic && same;
      const double cp = result.control_plane_ms / rounds_d;
      const double dp = result.data_plane_ms / rounds_d;
      const double speedup = cp > 0.0 ? serial_cp / cp : 0.0;
      std::printf("  %8zu %8s %16.2f %14.2f %9.2fx %11.2fx%s\n", threads,
                  "parallel", cp, dp, speedup,
                  base_cp_ms > 0.0 ? base_cp_ms / cp : 0.0,
                  same ? "" : "  [MISMATCH vs serial control plane]");
      telemetry::JsonValue row = telemetry::JsonValue::object();
      row.set("clusters", nclusters)
          .set("threads", threads)
          .set("serial", false)
          .set("control_plane_ms_per_round", cp)
          .set("data_plane_ms_per_round", dp)
          .set("speedup_vs_serial", speedup)
          .set("deterministic", same);
      if (base_cp_ms > 0.0) {
        row.set("speedup_vs_baseline", base_cp_ms / cp);
      }
      sweep_rows.push_back(std::move(row));
    }
  }

  std::printf("\ndeterminism across thread counts: %s\n",
              deterministic ? "ok (bit-identical)" : "VIOLATED");
  telemetry::JsonValue metrics = telemetry::JsonValue::object();
  // The fleet section carries its sweep parameters unconditionally —
  // deadline_ratio used to ride only on the per-size cells, so a run whose
  // size sweep was skipped (empty --fleet-clients-list without --million)
  // wrote a fleet summary with no ratio and baseline diffs stopped lining
  // up.  Emitting it here keeps the key present for every flag combination.
  telemetry::JsonValue fleet_section = telemetry::JsonValue::object();
  fleet_section.set("deadline_ratio", ratio)
      .set("rounds", fleet_rounds)
      .set("sizes", fleet_sizes.size())
      .set("million", million_rounds > 0);
  metrics.set("rounds", rounds)
      .set("fleet_rounds", fleet_rounds)
      .set("deadline_ratio", ratio)
      .set("fleet", std::move(fleet_section))
      .set("cluster_rounds", cluster_rounds)
      .set("cluster_clients", cluster_clients)
      .set("cluster_sweep", std::move(sweep_rows))
      .set("deterministic", deterministic)
      .set("cells", std::move(cells));
  bench::write_bench_json("fleet_scaling", std::move(metrics));
  return deterministic ? 0 : 1;
}
