#include "figure_common.hpp"

#include <cstdlib>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "linalg/simd/dispatch.hpp"

namespace bofl::bench {

namespace {
std::size_t g_threads = 0;  // 0 = one worker per hardware thread
}  // namespace

void configure_threads(int argc, const char* const* argv) {
  const FlagParser flags(argc, argv);
  g_threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  if (flags.has("simd")) {
    const std::string name = flags.get("simd", "");
    const auto level = linalg::simd::level_from_string(name);
    BOFL_REQUIRE(level.has_value(),
                 "--simd must be one of: avx2, scalar (got \"" + name + "\")");
    linalg::simd::force_level(*level);
  }
}

runtime::ThreadPool& shared_pool() {
  static runtime::ThreadPool pool(g_threads);
  return pool;
}

core::BoflOptions default_bofl_options(const device::DeviceModel& model) {
  core::BoflOptions options;
  options.mbo_cost = core::mbo_cost_for_device(model.name());
  return options;
}

ComparisonResult run_comparison(const device::DeviceModel& model,
                                const core::FlTaskSpec& task,
                                double deadline_ratio, const Seeds& seeds) {
  ComparisonResult result;
  result.rounds = core::make_rounds(task, model, deadline_ratio,
                                    seeds.deadlines);
  const device::NoiseModel noise;
  core::BoflController bofl(model, task.profile, noise,
                            default_bofl_options(model), seeds.bofl);
  core::PerformantController performant(model, task.profile, noise,
                                        seeds.performant);
  core::OracleController oracle(model, task.profile, noise, seeds.oracle);
  const std::vector<core::TaskResult> swept = core::run_tasks(
      {&bofl, &performant, &oracle},
      {&result.rounds, &result.rounds, &result.rounds}, &shared_pool());
  result.bofl = swept[0];
  result.performant = swept[1];
  result.oracle = swept[2];
  return result;
}

std::unique_ptr<core::BoflController> run_bofl_only(
    const device::DeviceModel& model, const core::FlTaskSpec& task,
    double deadline_ratio, core::TaskResult& result_out, const Seeds& seeds) {
  const auto rounds =
      core::make_rounds(task, model, deadline_ratio, seeds.deadlines);
  auto controller = std::make_unique<core::BoflController>(
      model, task.profile, device::NoiseModel{}, default_bofl_options(model),
      seeds.bofl);
  result_out = core::run_task(*controller, rounds);
  return controller;
}

void print_energy_figure(const char* figure_label, const char* bench_slug,
                         double deadline_ratio) {
  const device::DeviceModel agx = device::jetson_agx();
  char title[160];
  std::snprintf(title, sizeof(title),
                "%s: per-round energy, AGX, Tmax/Tmin = %.0f (100 rounds, "
                "first 40 shown)",
                figure_label, deadline_ratio);
  print_header(title,
               "columns: round | phase | deadline [s] | E(BoFL) "
               "E(Performant) E(Oracle) [J]");

  const char sub = 'a';
  const auto tasks = core::paper_tasks(agx.name());
  telemetry::JsonValue bench_tasks = telemetry::JsonValue::array();
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const core::FlTaskSpec& task = tasks[t];
    const ComparisonResult cmp = run_comparison(agx, task, deadline_ratio);
    std::printf("\n(%c) %s\n", static_cast<char>(sub + t),
                task.name.c_str());
    std::unique_ptr<CsvWriter> csv;
    const std::string csv_path = csv_path_or_empty(
        std::string(figure_label) + "_" + task.name + "_r" +
        std::to_string(static_cast<int>(deadline_ratio)) + ".csv");
    if (!csv_path.empty()) {
      csv = std::make_unique<CsvWriter>(
          csv_path, std::vector<std::string>{"round", "phase", "deadline_s",
                                             "bofl_J", "performant_J",
                                             "oracle_J"});
      for (std::size_t r = 0; r < cmp.rounds.size(); ++r) {
        csv->write_row(std::vector<double>{
            static_cast<double>(r + 1),
            static_cast<double>(static_cast<int>(cmp.bofl.rounds[r].phase)),
            cmp.rounds[r].deadline.value(),
            cmp.bofl.rounds[r].energy().value(),
            cmp.performant.rounds[r].energy().value(),
            cmp.oracle.rounds[r].energy().value()});
      }
      std::printf("  [csv written to %s]\n", csv_path.c_str());
    }
    for (std::size_t r = 0; r < 40 && r < cmp.rounds.size(); ++r) {
      std::printf("  r%02zu | p%d | %6.1f | %8.1f %8.1f %8.1f\n", r + 1,
                  static_cast<int>(cmp.bofl.rounds[r].phase),
                  cmp.rounds[r].deadline.value(),
                  cmp.bofl.rounds[r].energy().value(),
                  cmp.performant.rounds[r].energy().value(),
                  cmp.oracle.rounds[r].energy().value());
    }
    std::printf(
        "  summary (all 100 rounds): improvement vs Performant = %.1f%%, "
        "regret vs Oracle = %.2f%%,\n"
        "  deadlines met: BoFL=%s Performant=%s Oracle=%s; BoFL phases "
        "1/2/3 = %lld/%lld/%lld rounds\n",
        100.0 * core::improvement_vs(cmp.bofl, cmp.performant),
        100.0 * core::regret_vs(cmp.bofl, cmp.oracle),
        cmp.bofl.all_deadlines_met() ? "all" : "MISSED",
        cmp.performant.all_deadlines_met() ? "all" : "MISSED",
        cmp.oracle.all_deadlines_met() ? "all" : "MISSED",
        static_cast<long long>(
            cmp.bofl.rounds_in_phase(core::Phase::kSafeRandomExploration)),
        static_cast<long long>(
            cmp.bofl.rounds_in_phase(core::Phase::kParetoConstruction)),
        static_cast<long long>(
            cmp.bofl.rounds_in_phase(core::Phase::kExploitation)));
    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("task", task.name)
        .set("improvement_vs_performant_pct",
             100.0 * core::improvement_vs(cmp.bofl, cmp.performant))
        .set("regret_vs_oracle_pct",
             100.0 * core::regret_vs(cmp.bofl, cmp.oracle))
        .set("bofl_energy_j", cmp.bofl.total_training_energy().value() +
                                  cmp.bofl.total_mbo_energy().value())
        .set("performant_energy_j",
             cmp.performant.total_training_energy().value())
        .set("oracle_energy_j", cmp.oracle.total_training_energy().value())
        .set("bofl_deadlines_met", cmp.bofl.all_deadlines_met());
    bench_tasks.push_back(std::move(row));
  }
  telemetry::JsonValue metrics = telemetry::JsonValue::object();
  metrics.set("deadline_ratio", deadline_ratio)
      .set("tasks", std::move(bench_tasks));
  write_bench_json(bench_slug, std::move(metrics));
}

std::string write_bench_json(const std::string& name,
                             telemetry::JsonValue metrics) {
  const char* dir = std::getenv("BOFL_BENCH_JSON_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/BENCH_" + name + ".json"
                               : "BENCH_" + name + ".json";
  telemetry::JsonValue root = telemetry::JsonValue::object();
  // Every bench result records the SIMD dispatch level it ran under, so
  // perf trajectories never mix avx2 and scalar numbers unknowingly (CI
  // greps this field to assert the expected leg actually ran).
  root.set("bench", name)
      .set("simd_level", std::string(linalg::simd::to_string(
                             linalg::simd::active_level())))
      .set("metrics", std::move(metrics));
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "warning: cannot write bench json to %s\n",
                 path.c_str());
    return {};
  }
  const std::string text = root.dump();
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("[bench json written to %s]\n", path.c_str());
  return path;
}

std::string csv_path_or_empty(const std::string& filename) {
  const char* dir = std::getenv("BOFL_CSV_DIR");
  if (dir == nullptr || *dir == '\0') {
    return {};
  }
  return std::string(dir) + "/" + filename;
}

void print_header(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!subtitle.empty()) {
    std::printf("%s\n", subtitle.c_str());
  }
}

void print_row(const std::string& label, const std::vector<double>& cells,
               const char* format) {
  std::printf("%-28s", label.c_str());
  for (double cell : cells) {
    std::printf(format, cell);
  }
  std::printf("\n");
}

}  // namespace bofl::bench
