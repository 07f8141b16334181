#include "priors/knowledge_store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "pareto/pareto.hpp"
#include "telemetry/json.hpp"
#include "telemetry/json_reader.hpp"

namespace bofl::priors {

namespace {

using core::BoflController;

/// Below this confidence a cluster's prior is not offered at all.
constexpr double kMinConfidence = 0.5;
/// kTrust requests are downgraded to kVerify below this bar.
constexpr double kTrustConfidence = 0.9;
/// One misprediction outweighs this many verifications.
constexpr double kMispredictionWeight = 4.0;

/// Job-weighted combination of two aggregates of the same config, with the
/// import_state nextafter trick so mean -> weighted -> mean round trips
/// exactly.
BoflController::SavedObservation merge_observation(
    const BoflController::SavedObservation& a,
    const BoflController::SavedObservation& b) {
  BoflController::SavedObservation out;
  out.config_flat = a.config_flat;
  out.jobs = a.jobs + b.jobs;
  const double energy = core::quotient_exact_weighted(a.mean_energy, a.jobs) +
                        core::quotient_exact_weighted(b.mean_energy, b.jobs);
  const double latency =
      core::quotient_exact_weighted(a.mean_latency, a.jobs) +
      core::quotient_exact_weighted(b.mean_latency, b.jobs);
  out.mean_energy = energy / out.jobs;
  out.mean_latency = latency / out.jobs;
  return out;
}

std::vector<std::size_t> recompute_pareto(
    const std::vector<BoflController::SavedObservation>& observations) {
  std::vector<pareto::Point2> points;
  points.reserve(observations.size());
  for (const auto& obs : observations) {
    points.push_back({obs.mean_energy, obs.mean_latency});
  }
  std::vector<std::size_t> ids;
  for (const std::size_t index : pareto::non_dominated_indices(points)) {
    ids.push_back(observations[index].config_flat);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

telemetry::JsonValue fit_to_json(int objective,
                                 const gp::HyperoptResult& fit) {
  telemetry::JsonValue node = telemetry::JsonValue::object();
  telemetry::JsonValue scales = telemetry::JsonValue::array();
  for (const double ls : fit.kernel.lengthscales()) {
    scales.push_back(ls);
  }
  node.set("objective", objective)
      .set("family", gp::to_string(fit.kernel.family()))
      .set("signal_variance", fit.kernel.signal_variance())
      .set("noise_variance", fit.noise_variance)
      .set("lml", fit.log_marginal_likelihood)
      .set("lengthscales", std::move(scales));
  return node;
}

std::optional<gp::HyperoptResult> fit_from_json(
    const telemetry::JsonNode& node) {
  using telemetry::JsonNode;
  const JsonNode* family = node.find("family");
  BOFL_REQUIRE(family != nullptr && family->type == JsonNode::Type::kString,
               "gp fit needs a string 'family'");
  const std::optional<gp::KernelFamily> parsed =
      gp::kernel_family_from_string(family->string);
  BOFL_REQUIRE(parsed.has_value(), "unknown kernel family: " + family->string);
  const JsonNode* scales = node.find("lengthscales");
  BOFL_REQUIRE(scales != nullptr && scales->type == JsonNode::Type::kArray,
               "gp fit needs a 'lengthscales' array");
  std::vector<double> lengthscales;
  lengthscales.reserve(scales->array.size());
  for (const JsonNode& ls : scales->array) {
    BOFL_REQUIRE(ls.type == JsonNode::Type::kNumber,
                 "lengthscales must be numbers");
    lengthscales.push_back(ls.number);
  }
  gp::HyperoptResult fit{
      gp::Kernel(*parsed, telemetry::number_field(node, "signal_variance", 1.0),
                 std::move(lengthscales)),
      telemetry::number_field(node, "noise_variance", 0.0),
      telemetry::number_field(node, "lml", 0.0)};
  return fit;
}

}  // namespace

KnowledgeStore::Admission KnowledgeStore::admit(const ClusterKey& key,
                                                PriorPolicy requested) const {
  if (requested == PriorPolicy::kCold) {
    return {};
  }
  const auto it = clusters_.find(key);
  if (it == clusters_.end() || it->second.snapshot.empty()) {
    return {};
  }
  const double conf = confidence(key);
  if (conf < kMinConfidence) {
    return {};
  }
  PriorPolicy granted = requested;
  if (requested == PriorPolicy::kTrust && conf < kTrustConfidence) {
    granted = PriorPolicy::kVerify;
  }
  return {granted, &it->second.snapshot};
}

void KnowledgeStore::contribute(const ClusterKey& key,
                                const PriorSnapshot& snapshot) {
  ClusterKnowledge& cluster = clusters_[key];
  if (snapshot.empty()) {
    return;
  }
  ++cluster.contributions;
  if (cluster.snapshot.empty()) {
    cluster.snapshot = snapshot;
    return;
  }
  // Two-pointer merge of the sorted observation lists.
  std::vector<BoflController::SavedObservation> merged;
  const auto& a = cluster.snapshot.observations;
  const auto& b = snapshot.observations;
  merged.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() ||
        (i < a.size() && a[i].config_flat < b[j].config_flat)) {
      merged.push_back(a[i++]);
    } else if (i == a.size() || b[j].config_flat < a[i].config_flat) {
      merged.push_back(b[j++]);
    } else {
      merged.push_back(merge_observation(a[i++], b[j++]));
    }
  }
  cluster.snapshot.observations = std::move(merged);
  cluster.snapshot.pareto_flat_ids =
      recompute_pareto(cluster.snapshot.observations);
  // Scalars: the newest contribution wins.
  cluster.snapshot.t_x_max_s = snapshot.t_x_max_s != 0.0
                                   ? snapshot.t_x_max_s
                                   : cluster.snapshot.t_x_max_s;
  cluster.snapshot.source_rounds = snapshot.source_rounds;
  if (snapshot.fit1 && snapshot.fit2) {
    cluster.snapshot.fit1 = snapshot.fit1;
    cluster.snapshot.fit2 = snapshot.fit2;
  }
}

void KnowledgeStore::record_outcome(const ClusterKey& key, bool confirmed) {
  const auto it = clusters_.find(key);
  if (it == clusters_.end()) {
    return;
  }
  if (confirmed) {
    ++it->second.verified;
  } else {
    ++it->second.mispredictions;
  }
}

double KnowledgeStore::confidence(const ClusterKey& key) const {
  const auto it = clusters_.find(key);
  if (it == clusters_.end()) {
    return 0.0;
  }
  const auto verified = static_cast<double>(it->second.verified);
  const auto mispredicted = static_cast<double>(it->second.mispredictions);
  if (verified + mispredicted == 0.0) {
    return 1.0;  // no evidence against a freshly trained cluster
  }
  return verified /
         (verified + kMispredictionWeight * mispredicted);
}

std::string KnowledgeStore::to_json() const {
  telemetry::JsonValue root = telemetry::JsonValue::object();
  root.set("version", 1);
  telemetry::JsonValue list = telemetry::JsonValue::array();
  for (const auto& [key, cluster] : clusters_) {
    telemetry::JsonValue entry = telemetry::JsonValue::object();
    entry.set("device", key.device)
        .set("workload", key.workload)
        .set("contributions", cluster.contributions)
        .set("verified", cluster.verified)
        .set("mispredictions", cluster.mispredictions);
    telemetry::JsonValue snap = telemetry::JsonValue::object();
    snap.set("source_rounds", cluster.snapshot.source_rounds)
        .set("t_x_max_s", cluster.snapshot.t_x_max_s);
    telemetry::JsonValue observations = telemetry::JsonValue::array();
    for (const auto& obs : cluster.snapshot.observations) {
      telemetry::JsonValue row = telemetry::JsonValue::array();
      row.push_back(static_cast<std::uint64_t>(obs.config_flat));
      row.push_back(obs.jobs);
      row.push_back(obs.mean_energy);
      row.push_back(obs.mean_latency);
      observations.push_back(std::move(row));
    }
    snap.set("observations", std::move(observations));
    telemetry::JsonValue front = telemetry::JsonValue::array();
    for (const std::size_t flat : cluster.snapshot.pareto_flat_ids) {
      front.push_back(static_cast<std::uint64_t>(flat));
    }
    snap.set("pareto", std::move(front));
    telemetry::JsonValue fits = telemetry::JsonValue::array();
    if (cluster.snapshot.fit1 && cluster.snapshot.fit2) {
      fits.push_back(fit_to_json(1, *cluster.snapshot.fit1));
      fits.push_back(fit_to_json(2, *cluster.snapshot.fit2));
    }
    snap.set("gp", std::move(fits));
    entry.set("snapshot", std::move(snap));
    list.push_back(std::move(entry));
  }
  root.set("clusters", std::move(list));
  return root.dump();
}

KnowledgeStore KnowledgeStore::from_json(const std::string& text) {
  using telemetry::integer_field;
  using telemetry::integer_value;
  using telemetry::JsonNode;
  using telemetry::number_field;
  const JsonNode root = telemetry::parse_json(text);
  BOFL_REQUIRE(root.type == JsonNode::Type::kObject,
               "a knowledge store must be a JSON object");
  BOFL_REQUIRE(number_field(root, "version", 0.0) == 1.0,
               "unsupported knowledge store version");
  KnowledgeStore store;
  const JsonNode* list = root.find("clusters");
  if (list == nullptr) {
    return store;
  }
  BOFL_REQUIRE(list->type == JsonNode::Type::kArray,
               "knowledge store 'clusters' must be an array");
  for (const JsonNode& entry : list->array) {
    BOFL_REQUIRE(entry.type == JsonNode::Type::kObject,
                 "each cluster must be a JSON object");
    const JsonNode* device = entry.find("device");
    const JsonNode* workload = entry.find("workload");
    BOFL_REQUIRE(device != nullptr &&
                     device->type == JsonNode::Type::kString &&
                     workload != nullptr &&
                     workload->type == JsonNode::Type::kString,
                 "each cluster needs string 'device' and 'workload'");
    ClusterKey key{device->string, workload->string};
    ClusterKnowledge cluster;
    cluster.contributions =
        static_cast<std::uint64_t>(integer_field(entry, "contributions", 0));
    cluster.verified =
        static_cast<std::uint64_t>(integer_field(entry, "verified", 0));
    cluster.mispredictions =
        static_cast<std::uint64_t>(integer_field(entry, "mispredictions", 0));
    const JsonNode* snap = entry.find("snapshot");
    BOFL_REQUIRE(snap != nullptr && snap->type == JsonNode::Type::kObject,
                 "each cluster needs a 'snapshot' object");
    cluster.snapshot.source_rounds = integer_field(*snap, "source_rounds", 0);
    cluster.snapshot.t_x_max_s = number_field(*snap, "t_x_max_s", 0.0);
    BOFL_REQUIRE(cluster.snapshot.t_x_max_s >= 0.0,
                 "'t_x_max_s' cannot be negative");
    if (const JsonNode* observations = snap->find("observations")) {
      BOFL_REQUIRE(observations->type == JsonNode::Type::kArray,
                   "'observations' must be an array");
      for (const JsonNode& row : observations->array) {
        BOFL_REQUIRE(row.type == JsonNode::Type::kArray &&
                         row.array.size() == 4,
                     "each observation row is [flat, jobs, energy, latency]");
        for (const JsonNode& cell : row.array) {
          BOFL_REQUIRE(cell.type == JsonNode::Type::kNumber,
                       "observation cells must be numbers");
        }
        BoflController::SavedObservation obs;
        obs.config_flat = static_cast<std::size_t>(
            integer_value(row.array[0], 0, "observation id"));
        // contribute()'s two-pointer merge needs sorted, unique ids.
        BOFL_REQUIRE(cluster.snapshot.observations.empty() ||
                         cluster.snapshot.observations.back().config_flat <
                             obs.config_flat,
                     "observation ids must be strictly ascending");
        obs.jobs = row.array[1].number;
        obs.mean_energy = row.array[2].number;
        obs.mean_latency = row.array[3].number;
        BOFL_REQUIRE(obs.jobs > 0.0 && obs.mean_energy > 0.0 &&
                         obs.mean_latency > 0.0,
                     "observation jobs and means must be positive");
        cluster.snapshot.observations.push_back(obs);
      }
    }
    if (const JsonNode* front = snap->find("pareto")) {
      BOFL_REQUIRE(front->type == JsonNode::Type::kArray,
                   "'pareto' must be an array");
      for (const JsonNode& id : front->array) {
        cluster.snapshot.pareto_flat_ids.push_back(
            static_cast<std::size_t>(integer_value(id, 0, "pareto id")));
      }
    }
    if (const JsonNode* fits = snap->find("gp")) {
      BOFL_REQUIRE(fits->type == JsonNode::Type::kArray,
                   "'gp' must be an array");
      BOFL_REQUIRE(fits->array.empty() || fits->array.size() == 2,
                   "'gp' holds no fit or one per objective");
      if (fits->array.size() == 2) {
        cluster.snapshot.fit1 = fit_from_json(fits->array[0]);
        cluster.snapshot.fit2 = fit_from_json(fits->array[1]);
      }
    }
    BOFL_REQUIRE(!store.clusters_.contains(key),
                 "duplicate cluster in knowledge store: " + key.label());
    store.clusters_.emplace(std::move(key), std::move(cluster));
  }
  return store;
}

void KnowledgeStore::save(const std::string& path) const {
  // Write a sibling file, then rename it over the store: a crash mid-write
  // leaves the previous store intact instead of a truncated one.
  const std::string temp = path + ".tmp";
  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  BOFL_REQUIRE(out.is_open(), "cannot write knowledge store: " + temp);
  out << to_json() << '\n';
  out.close();
  std::error_code error;
  if (out.good()) {
    std::filesystem::rename(temp, path, error);
  }
  if (!out.good() || error) {
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
  }
  BOFL_REQUIRE(out.good(), "short write to knowledge store: " + temp);
  BOFL_REQUIRE(!error, "cannot replace knowledge store " + path + ": " +
                           error.message());
}

KnowledgeStore KnowledgeStore::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  BOFL_REQUIRE(in.is_open(), "cannot open knowledge store: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // Tolerate the trailing newline save() writes.
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
    text.pop_back();
  }
  return from_json(text);
}

}  // namespace bofl::priors
