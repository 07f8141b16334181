// The controller-state file as bofl_sim --save-state writes it and
// --load-state reads it: a one-cluster knowledge store keyed by the
// controller's device/workload cluster.
#pragma once

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/bofl_controller.hpp"
#include "priors/knowledge_store.hpp"

namespace bofl::core {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Distill `controller` into an empty store under `key` and save it.
inline void write_state_file(const BoflController& controller,
                             const priors::ClusterKey& key,
                             std::int64_t rounds_run,
                             const std::string& path) {
  priors::KnowledgeStore store;
  store.contribute(key, priors::distill(controller, rounds_run));
  store.save(path);
}

/// The observations saved under `key`; throws std::invalid_argument on a
/// malformed store or one without the cluster.
inline std::vector<BoflController::SavedObservation> read_state_file(
    const std::string& path, const priors::ClusterKey& key) {
  const priors::KnowledgeStore store = priors::KnowledgeStore::from_file(path);
  const auto found = store.clusters().find(key);
  BOFL_REQUIRE(found != store.clusters().end(),
               "no " + key.label() + " state in " + path);
  return found->second.snapshot.observations;
}

/// The "observations" array of a saved store's text: the bytes every
/// generation of a save -> load -> import -> save chain must keep.  The rest
/// of the file (source_rounds, t_x_max_s, GP fits) describes the controller
/// that saved it, so it differs between a trained and a resumed one.
inline std::string observation_rows(const std::string& store_text) {
  const std::size_t begin = store_text.find("\"observations\":");
  const std::size_t end = store_text.find("\"pareto\":", begin);
  BOFL_REQUIRE(begin != std::string::npos && end != std::string::npos,
               "no observation rows in the store text");
  return store_text.substr(begin, end - begin);
}

}  // namespace bofl::core
