// Bit-exact pins of FederatedSimulation's per-round record on small
// versions of the two fl examples: examples/fl_cluster (uniform slack on
// AGX, one pin per controller kind) and examples/heterogeneous_fleet
// (adaptive slack, 8 % dropout, AGX and TX2 under BoFL).  Each hash covers
// the exact bits of every FlRoundStats field, so any change to deadlines,
// dropout draws, pacing, aggregation or evaluation moves it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fl/simulation.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::fl {
namespace {

using core::ControllerKind;

/// Pins the dispatch level for a scope and restores the ambient level on exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(linalg::simd::Level level)
      : previous_(linalg::simd::active_level()) {
    linalg::simd::force_level(level);
  }
  ~ScopedSimdLevel() { linalg::simd::force_level(previous_); }

 private:
  linalg::simd::Level previous_;
};

/// FNV-1a over the bits of every field of every round, in round order.
std::uint64_t trace_hash(const FlSimulationResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const FlRoundStats& r : result.rounds) {
    fold(static_cast<std::uint64_t>(r.round));
    fold(std::bit_cast<std::uint64_t>(r.energy.value()));
    fold(r.participants);
    fold(r.accepted);
    fold(std::bit_cast<std::uint64_t>(r.deadline.value()));
    fold(std::bit_cast<std::uint64_t>(r.global_loss));
    fold(std::bit_cast<std::uint64_t>(r.global_accuracy));
  }
  return hash;
}

/// examples/fl_cluster with 12 of its 25 rounds.
std::uint64_t uniform_slack_hash(ControllerKind kind) {
  const device::DeviceModel agx = device::jetson_agx();
  FlSimulationConfig config;
  config.num_clients = 8;
  config.clients_per_round = 4;
  config.rounds = 12;
  config.epochs = 2;
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.deadline_ratio = 3.0;
  config.shard_skew = 2.0;
  config.seed = 2022;
  config.controller = kind;
  config.threads = 2;
  FederatedSimulation sim(agx, config);
  return trace_hash(sim.run());
}

// BoFL's GP fits differ in their last bits between the dispatch levels, and
// on this trace those bits reach a recorded decision, so each level has its
// own pin.
TEST(FlGolden, UniformSlackBofl) {
  {
    const ScopedSimdLevel scalar(linalg::simd::Level::kScalar);
    EXPECT_EQ(uniform_slack_hash(ControllerKind::kBofl), 0xab3f02a8cc4235ffULL);
  }
  if (linalg::simd::avx2_compiled() && linalg::simd::cpu_supports_avx2()) {
    const ScopedSimdLevel avx2(linalg::simd::Level::kAvx2);
    EXPECT_EQ(uniform_slack_hash(ControllerKind::kBofl), 0x1f7f412531c4051dULL);
  }
}

TEST(FlGolden, UniformSlackPerformant) {
  EXPECT_EQ(uniform_slack_hash(ControllerKind::kPerformant), 0xfec06744be9344daULL);
}

TEST(FlGolden, UniformSlackOracle) {
  EXPECT_EQ(uniform_slack_hash(ControllerKind::kOracle), 0xa4980dc4ed89858bULL);
}

/// examples/heterogeneous_fleet with 12 of its 25 rounds.
TEST(FlGolden, AdaptiveSlackDropoutMixedFleet) {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  FlSimulationConfig config;
  config.num_clients = 10;
  config.clients_per_round = 4;
  config.rounds = 12;
  config.epochs = 2;
  config.minibatch_size = 8;
  config.shard_examples = 512;
  config.deadline_policy = DeadlinePolicyKind::kAdaptiveSlack;
  config.dropout_probability = 0.08;
  config.controller = ControllerKind::kBofl;
  config.seed = 424242;
  config.threads = 2;
  FederatedSimulation sim({&agx, &tx2}, config);
  EXPECT_EQ(trace_hash(sim.run()), 0x9455b4bf58eee628ULL);
}

}  // namespace
}  // namespace bofl::fl
