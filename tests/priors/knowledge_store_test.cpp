#include "priors/knowledge_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bo/mbo_engine.hpp"

namespace bofl::priors {
namespace {

using SavedObservation = core::BoflController::SavedObservation;

PriorSnapshot snapshot_of(std::vector<SavedObservation> observations) {
  PriorSnapshot snapshot;
  snapshot.observations = std::move(observations);
  for (const SavedObservation& obs : snapshot.observations) {
    snapshot.pareto_flat_ids.push_back(obs.config_flat);
  }
  snapshot.t_x_max_s = 0.25;
  snapshot.source_rounds = 10;
  return snapshot;
}

/// The smallest prior admission grants: bo::kMinProposeObservations rows.
PriorSnapshot admissible_snapshot() {
  return snapshot_of(
      {{5, 4.0, 2.0, 0.5}, {8, 4.0, 1.5, 0.7}, {11, 4.0, 1.2, 0.9}});
}

const ClusterKey kKey{"agx", "vit"};

TEST(KnowledgeStore, UnknownClusterDeclinesAndKColdPassesThrough) {
  KnowledgeStore store;
  const KnowledgeStore::Admission unknown =
      store.admit(kKey, PriorPolicy::kVerify);
  EXPECT_EQ(unknown.policy, PriorPolicy::kCold);
  EXPECT_EQ(unknown.snapshot, nullptr);
  EXPECT_EQ(store.confidence(kKey), 0.0);

  store.contribute(kKey, snapshot_of({{5, 4.0, 2.0, 0.5}}));
  const KnowledgeStore::Admission cold = store.admit(kKey, PriorPolicy::kCold);
  EXPECT_EQ(cold.policy, PriorPolicy::kCold);
  EXPECT_EQ(cold.snapshot, nullptr);
}

TEST(KnowledgeStore, ConfidenceGatesAdmissionAndDowngradesTrust) {
  KnowledgeStore store;
  store.contribute(kKey, admissible_snapshot());
  // No outcomes yet: full confidence, trust granted as requested.
  EXPECT_EQ(store.confidence(kKey), 1.0);
  EXPECT_EQ(store.admit(kKey, PriorPolicy::kTrust).policy,
            PriorPolicy::kTrust);

  // One misprediction outweighs misprediction_weight verifications: with
  // 3 confirmations and 1 demotion, confidence = 3 / (3 + 4) < 0.5.
  store.record_outcome(kKey, true);
  store.record_outcome(kKey, true);
  store.record_outcome(kKey, true);
  store.record_outcome(kKey, false);
  EXPECT_NEAR(store.confidence(kKey), 3.0 / 7.0, 1e-12);
  const KnowledgeStore::Admission declined =
      store.admit(kKey, PriorPolicy::kVerify);
  EXPECT_EQ(declined.snapshot, nullptr);

  // Many confirmations rebuild confidence past min_confidence but stay
  // below the trust bar: kTrust is downgraded to kVerify.
  for (int i = 0; i < 10; ++i) {
    store.record_outcome(kKey, true);
  }
  EXPECT_GT(store.confidence(kKey), store.options().min_confidence);
  EXPECT_LT(store.confidence(kKey), store.options().trust_confidence);
  const KnowledgeStore::Admission downgraded =
      store.admit(kKey, PriorPolicy::kTrust);
  EXPECT_EQ(downgraded.policy, PriorPolicy::kVerify);
  ASSERT_NE(downgraded.snapshot, nullptr);
}

TEST(KnowledgeStore, ContributeMergesObservationsJobWeighted) {
  KnowledgeStore store;
  store.contribute(kKey, snapshot_of({{3, 2.0, 4.0, 1.0}, {7, 2.0, 1.0, 2.0}}));
  store.contribute(kKey, snapshot_of({{3, 6.0, 8.0, 3.0}, {9, 1.0, 0.5, 4.0}}));

  const auto found = store.clusters().find(kKey);
  ASSERT_NE(found, store.clusters().end());
  const ClusterKnowledge* knowledge = &found->second;
  EXPECT_EQ(knowledge->contributions, 2u);
  ASSERT_EQ(knowledge->snapshot.observations.size(), 3u);
  // Sorted by flat id, overlapping id 3 merged with job weights 2 + 6.
  const SavedObservation& merged = knowledge->snapshot.observations[0];
  EXPECT_EQ(merged.config_flat, 3u);
  EXPECT_DOUBLE_EQ(merged.jobs, 8.0);
  EXPECT_NEAR(merged.mean_energy, (2.0 * 4.0 + 6.0 * 8.0) / 8.0, 1e-12);
  EXPECT_NEAR(merged.mean_latency, (2.0 * 1.0 + 6.0 * 3.0) / 8.0, 1e-12);
  EXPECT_EQ(knowledge->snapshot.observations[1].config_flat, 7u);
  EXPECT_EQ(knowledge->snapshot.observations[2].config_flat, 9u);
  // The merged Pareto front is recomputed over the merged profiles: id 3
  // (7.0 J, 2.5 s after the merge) is dominated by id 7 (1.0 J, 2.0 s)
  // and must drop off the front.
  for (const std::size_t flat : knowledge->snapshot.pareto_flat_ids) {
    EXPECT_NE(flat, 3u);
  }
}

TEST(KnowledgeStore, JsonRoundTripIsByteStable) {
  KnowledgeStore store;
  store.contribute(kKey, snapshot_of({{3, 2.0, 4.0, 1.0}, {7, 2.0, 1.0, 2.0}}));
  store.contribute(ClusterKey{"tx2", "lstm"},
                   snapshot_of({{1, 5.0, 0.125, 0.0625}}));
  store.record_outcome(kKey, true);
  store.record_outcome(kKey, false);

  const std::string json = store.to_json();
  const KnowledgeStore reloaded = KnowledgeStore::from_json(json);
  EXPECT_EQ(reloaded.to_json(), json);
  EXPECT_EQ(reloaded.num_clusters(), 2u);
  EXPECT_DOUBLE_EQ(reloaded.confidence(kKey), store.confidence(kKey));

  // File round trip preserves the exact bytes too.
  const std::string path = ::testing::TempDir() + "bofl_store_test.json";
  store.save(path);
  const KnowledgeStore from_disk = KnowledgeStore::from_file(path);
  EXPECT_EQ(from_disk.to_json(), json);
  std::remove(path.c_str());
}

TEST(KnowledgeStore, SaveOverAnExistingStoreMatchesAFreshSave) {
  // save() writes a sibling file and renames it over the store.  Replacing
  // a larger store must leave exactly the bytes a fresh save writes, and
  // no temporary file behind.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "bofl_store_replace";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto read_bytes = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };

  KnowledgeStore larger;
  larger.contribute(kKey, snapshot_of({{3, 2.0, 4.0, 1.0}, {7, 2.0, 1.0, 2.0}}));
  larger.contribute(ClusterKey{"tx2", "lstm"},
                    snapshot_of({{1, 5.0, 0.125, 0.0625}}));
  KnowledgeStore smaller;
  smaller.contribute(kKey, snapshot_of({{3, 2.0, 4.0, 1.0}}));

  const std::filesystem::path replaced = dir / "store.json";
  const std::filesystem::path fresh = dir / "fresh.json";
  larger.save(replaced.string());
  smaller.save(replaced.string());
  smaller.save(fresh.string());
  EXPECT_EQ(read_bytes(replaced), read_bytes(fresh));
  EXPECT_EQ(read_bytes(fresh), smaller.to_json() + "\n");

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"fresh.json", "store.json"}));
  std::filesystem::remove_all(dir);
}

// A store is a file boundary: each hostile variant of a valid store is a
// typed error, and every check runs before its cast (the asan-ubsan build
// traps a double-to-integer cast out of range).
TEST(KnowledgeStore, RejectsHostileStores) {
  const std::string valid =
      R"({"version":1,"clusters":[{"device":"jetson-agx","workload":"vit",)"
      R"("contributions":1,"verified":0,"mispredictions":0,"snapshot":{)"
      R"("source_rounds":10,"t_x_max_s":0.25,)"
      R"("observations":[[3,2,4,1],[7,2,1,2]],"pareto":[3,7],"gp":[]}}]})";
  EXPECT_EQ(KnowledgeStore::from_json(valid).to_json(), valid);

  struct Hostile {
    const char* name;
    const char* from;
    const char* to;
  };
  const Hostile cases[] = {
      {"fractional id", "[7,2,1,2]", "[26.7,2,1,2]"},
      {"huge id", "[7,2,1,2]", "[1e300,2,1,2]"},
      {"negative count", R"("mispredictions":0)",
       R"("mispredictions":-1e300)"},
      {"huge pareto id", R"("pareto":[3,7])", R"("pareto":[3,1e300])"},
      {"duplicate row", "[[3,2,4,1],", "[[3,2,4,1],[3,2,4,1],"},
      {"zero jobs", "[7,2,1,2]", "[7,0,1,2]"},
      {"descending ids", "[[3,2,4,1],[7,2,1,2]]", "[[7,2,1,2],[3,2,4,1]]"},
      {"one gp fit", R"("gp":[])",
       R"("gp":[{"objective":1,"family":"matern52","signal_variance":1,)"
       R"("noise_variance":0,"lml":0,"lengthscales":[1,1,1]}])"},
      {"negative mean", "[7,2,1,2]", "[7,2,-1,2]"},
      {"fractional contributions", R"("contributions":1)",
       R"("contributions":1.5)"},
      {"huge source rounds", R"("source_rounds":10)",
       R"("source_rounds":1e300)"},
      {"negative t_x_max", R"("t_x_max_s":0.25)", R"("t_x_max_s":-0.25)"},
      {"duplicate cluster", "}}]}",
       R"(}},{"device":"jetson-agx","workload":"vit","snapshot":{}}]})"},
  };
  for (const Hostile& hostile : cases) {
    std::string text = valid;
    const std::size_t at = text.find(hostile.from);
    ASSERT_NE(at, std::string::npos) << hostile.name;
    text.replace(at, std::string(hostile.from).size(), hostile.to);
    EXPECT_THROW((void)KnowledgeStore::from_json(text), std::invalid_argument)
        << hostile.name << ": " << text;
  }
}

TEST(KnowledgeStore, EmptySnapshotNeverAdmits) {
  KnowledgeStore store;
  store.contribute(kKey, PriorSnapshot{});
  const KnowledgeStore::Admission admission =
      store.admit(kKey, PriorPolicy::kVerify);
  EXPECT_EQ(admission.snapshot, nullptr);
  EXPECT_EQ(admission.policy, PriorPolicy::kCold);
}

TEST(KnowledgeStore, PriorTooThinForTheGpNeverAdmits) {
  // A warm controller can reach Pareto construction on the prior's rows
  // alone, and propose_batch needs kMinProposeObservations of them: a
  // thinner prior starts its cluster cold instead of stopping the run.
  std::vector<SavedObservation> rows = admissible_snapshot().observations;
  rows.pop_back();
  ASSERT_EQ(rows.size() + 1, bo::kMinProposeObservations);
  for (const PriorPolicy policy : {PriorPolicy::kVerify, PriorPolicy::kTrust}) {
    KnowledgeStore thin;
    thin.contribute(kKey, snapshot_of(rows));
    const KnowledgeStore::Admission declined = thin.admit(kKey, policy);
    EXPECT_EQ(declined.policy, PriorPolicy::kCold);
    EXPECT_EQ(declined.snapshot, nullptr);

    KnowledgeStore enough;
    enough.contribute(kKey, admissible_snapshot());
    const KnowledgeStore::Admission granted = enough.admit(kKey, policy);
    EXPECT_EQ(granted.policy, policy);
    ASSERT_NE(granted.snapshot, nullptr);
    EXPECT_EQ(granted.snapshot->observations.size(),
              bo::kMinProposeObservations);
  }
}

}  // namespace
}  // namespace bofl::priors
