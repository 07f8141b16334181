// Shared plumbing for the figure-reproduction benchmarks: standard
// controller construction, full-task execution, and table formatting.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/bofl_controller.hpp"
#include "core/harness.hpp"
#include "core/linear_controller.hpp"
#include "core/mbo_cost.hpp"
#include "core/oracle_controller.hpp"
#include "core/performant_controller.hpp"
#include "device/device_model.hpp"
#include "runtime/thread_pool.hpp"
#include "telemetry/json.hpp"

namespace bofl::bench {

/// Parse --threads N from a bench driver's argv (0 / absent = one worker
/// per hardware thread) and --simd avx2|scalar (forces the kernel dispatch
/// level; absent = BOFL_SIMD env, then cpuid — see linalg/simd/dispatch.hpp).
/// Call once at the top of main, before the first shared_pool() use.
void configure_threads(int argc, const char* const* argv);

/// Process-wide worker pool for the benches, sized by configure_threads();
/// created on first use.  Controller sweeps are deterministic for any size.
[[nodiscard]] runtime::ThreadPool& shared_pool();

/// The seeds every figure benchmark uses, so printed numbers are stable.
struct Seeds {
  std::uint64_t deadlines = 20221107;  // Middleware '22 opening day
  std::uint64_t bofl = 1;
  std::uint64_t performant = 2;
  std::uint64_t oracle = 3;
};

/// Default BoFL options with the device-calibrated MBO cost model.
[[nodiscard]] core::BoflOptions default_bofl_options(
    const device::DeviceModel& model);

/// Run a full (task, deadline-ratio) experiment with the three §6
/// controllers and return their results in {bofl, performant, oracle} order.
/// The three controllers run concurrently on shared_pool() (each one's
/// rounds stay strictly ordered, so numbers match the serial sweep).
struct ComparisonResult {
  core::TaskResult bofl;
  core::TaskResult performant;
  core::TaskResult oracle;
  std::vector<core::RoundSpec> rounds;
};

[[nodiscard]] ComparisonResult run_comparison(const device::DeviceModel& model,
                                              const core::FlTaskSpec& task,
                                              double deadline_ratio,
                                              const Seeds& seeds = {});

/// Same but keeping the BoFL controller alive for post-hoc inspection
/// (Pareto fronts, explored sets).
[[nodiscard]] std::unique_ptr<core::BoflController> run_bofl_only(
    const device::DeviceModel& model, const core::FlTaskSpec& task,
    double deadline_ratio, core::TaskResult& result_out,
    const Seeds& seeds = {});

/// When the BOFL_CSV_DIR environment variable is set, figure benchmarks
/// additionally export their series as CSV files into that directory
/// (returns the full path, or an empty string when exporting is off).
[[nodiscard]] std::string csv_path_or_empty(const std::string& filename);

/// Figures 9 and 10 share everything except the deadline ratio: print the
/// per-round energy of BoFL / Performant / Oracle (first 40 of 100 rounds)
/// with deadlines and phase markers, then the whole-task summary metrics.
/// `bench_slug` names the machine-readable result file (see
/// write_bench_json).
void print_energy_figure(const char* figure_label, const char* bench_slug,
                         double deadline_ratio);

/// Write a machine-readable bench result as BENCH_<name>.json into
/// $BOFL_BENCH_JSON_DIR (or the current directory), wrapping `metrics` as
///   {"bench": <name>, "metrics": <metrics>}
/// so perf trajectories can be assembled from bench runs.  Returns the path
/// written.
std::string write_bench_json(const std::string& name,
                             telemetry::JsonValue metrics);

/// Section banner: "=== Figure 9(a): ... ===".
void print_header(const std::string& title, const std::string& subtitle = "");

/// One row of right-aligned numeric cells after a label.
void print_row(const std::string& label, const std::vector<double>& cells,
               const char* format = "%10.2f");

}  // namespace bofl::bench
