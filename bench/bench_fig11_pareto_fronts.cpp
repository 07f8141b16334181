// Figure 11: BoFL-constructed Pareto fronts vs the actual (offline-profiled)
// Pareto fronts on the AGX testbed, per task.  Prints both point series
// (per-job latency [s], energy [J]) plus coverage statistics.  Writes
// BENCH_fig11_pareto_fronts.json.
#include <algorithm>
#include <set>

#include "figure_common.hpp"
#include "pareto/hypervolume.hpp"
#include "pareto/quality.hpp"

int main(int argc, char** argv) {
  using namespace bofl;
  bench::configure_threads(argc, argv);
  const device::DeviceModel agx = device::jetson_agx();
  bench::print_header(
      "Figure 11: BoFL searched Pareto fronts vs actual fronts (AGX, "
      "Tmax/Tmin = 2)");

  telemetry::JsonValue json_tasks = telemetry::JsonValue::array();
  for (const core::FlTaskSpec& task : core::paper_tasks(agx.name())) {
    core::TaskResult result;
    const auto controller = bench::run_bofl_only(agx, task, 2.0, result);

    // Actual front from exhaustive ground-truth profiling.
    const auto truth = core::true_pareto_profiles(agx, task.profile);
    // BoFL front: measured-Pareto configurations, scored at their *true*
    // values (the figure plots real performance).
    std::vector<pareto::Point2> constructed;
    for (std::size_t flat : controller->pareto_flat_ids()) {
      const device::DvfsConfig config = agx.space().from_flat(flat);
      constructed.push_back({agx.energy(task.profile, config).value(),
                             agx.latency(task.profile, config).value()});
    }
    std::sort(constructed.begin(), constructed.end(),
              [](const auto& a, const auto& b) { return a.f2 < b.f2; });

    std::printf("\n%s\n", task.name.c_str());
    std::printf("  actual Pareto front (%zu points):\n", truth.size());
    for (const auto& p : truth) {
      std::printf("    T=%.3fs  E=%.2fJ\n", p.latency_per_job,
                  p.energy_per_job);
    }
    std::printf("  BoFL constructed front (%zu points):\n",
                constructed.size());
    for (const auto& p : constructed) {
      std::printf("    T=%.3fs  E=%.2fJ\n", p.f2, p.f1);
    }

    std::vector<pareto::Point2> truth_points;
    for (const auto& p : truth) {
      truth_points.push_back({p.energy_per_job, p.latency_per_job});
    }
    const pareto::Point2 ref{20.0, 3.5};
    const double hv_truth = pareto::hypervolume_2d(truth_points, ref);
    const double hv_bofl = pareto::hypervolume_2d(constructed, ref);
    const double eps = pareto::additive_epsilon(constructed, truth_points);
    const double igd =
        pareto::inverted_generational_distance(constructed, truth_points);
    std::printf(
        "  explored %zu/%zu configurations (%.1f%% of the space); "
        "hypervolume coverage %.1f%% of actual front\n",
        controller->engine().num_observed_candidates(), agx.space().size(),
        100.0 *
            static_cast<double>(
                controller->engine().num_observed_candidates()) /
            static_cast<double>(agx.space().size()),
        100.0 * hv_bofl / hv_truth);
    std::printf(
        "  front quality: additive epsilon %.3f, inverted generational "
        "distance %.3f\n",
        eps, igd);

    telemetry::JsonValue row = telemetry::JsonValue::object();
    row.set("task", task.name)
        .set("actual_front_points", static_cast<std::uint64_t>(truth.size()))
        .set("constructed_front_points",
             static_cast<std::uint64_t>(constructed.size()))
        .set("explored_configs",
             static_cast<std::uint64_t>(
                 controller->engine().num_observed_candidates()))
        .set("hv_coverage_pct", 100.0 * hv_bofl / hv_truth)
        .set("additive_epsilon", eps)
        .set("igd", igd);
    json_tasks.push_back(std::move(row));
  }

  telemetry::JsonValue metrics = telemetry::JsonValue::object();
  metrics.set("tasks", std::move(json_tasks));
  (void)bench::write_bench_json("fig11_pareto_fronts", std::move(metrics));

  std::printf(
      "\nPaper reference: the constructed front closely tracks the actual "
      "front after exploring ~3%% of the space.\n");
  return 0;
}
