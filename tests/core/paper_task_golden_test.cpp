// Golden pin of single-device BoFL runs: every round's energy, elapsed time
// and phase over the paper's three tasks on both devices.  The runs cover
// exploration (MBO proposals: GP fits, cross-covariance rows, EHVI) and
// exploitation (the per-round ILP), so a change anywhere in the controller's
// numeric path that moves a single bit shows here.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "linalg/simd/dispatch.hpp"
#include "runtime/thread_pool.hpp"

namespace bofl::core {
namespace {

/// The FNV-1a hash of the runs below.  Both dispatch levels reach it: on
/// these runs the few-ulp differences of the AVX2 kernels cross no decision
/// the trace records.
constexpr std::uint64_t kGoldenHash = 0xbcbf799cc6f3997fULL;

/// Pins the dispatch level for the test body and restores the ambient level
/// on exit, so ordering against other tests in this binary doesn't matter.
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

void fnv_fold(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFU;
    hash *= 0x100000001b3ULL;
  }
}

/// 3 tasks x {AGX, TX2} at deadline ratio 2, 40 rounds each, controller
/// seed 1, on a two-worker pool (results are pool-size independent).
std::uint64_t paper_task_hash() {
  const device::DeviceModel agx = device::jetson_agx();
  const device::DeviceModel tx2 = device::jetson_tx2();
  runtime::ThreadPool pool(2);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const device::DeviceModel* model : {&agx, &tx2}) {
    for (FlTaskSpec task : paper_tasks(model->name())) {
      task.num_rounds = 40;
      const std::vector<RoundSpec> rounds = make_rounds(task, *model, 2.0, 1);
      BoflOptions options;
      options.mbo_cost = mbo_cost_for_device(model->name());
      BoflController controller(*model, task.profile, device::NoiseModel{},
                                options, 1);
      controller.set_parallel_pool(&pool);
      for (const RoundTrace& trace : run_task(controller, rounds).rounds) {
        fnv_fold(hash, std::bit_cast<std::uint64_t>(trace.energy().value()));
        fnv_fold(hash, std::bit_cast<std::uint64_t>(trace.elapsed().value()));
        fnv_fold(hash, static_cast<std::uint64_t>(trace.phase));
      }
    }
  }
  return hash;
}

TEST(PaperTaskGolden, ScalarLevelReproducesCommittedHash) {
  const ScopedSimdLevel scalar(linalg::simd::Level::kScalar);
  const std::uint64_t hash = paper_task_hash();
  EXPECT_EQ(hash, kGoldenHash) << "actual hash 0x" << std::hex << hash;
}

TEST(PaperTaskGolden, Avx2LevelReproducesCommittedHash) {
  if (!linalg::simd::avx2_compiled() || !linalg::simd::cpu_supports_avx2()) {
    GTEST_SKIP() << "AVX2 not available on this host/build";
  }
  const ScopedSimdLevel avx2(linalg::simd::Level::kAvx2);
  const std::uint64_t hash = paper_task_hash();
  EXPECT_EQ(hash, kGoldenHash) << "actual hash 0x" << std::hex << hash;
}

}  // namespace
}  // namespace bofl::core
