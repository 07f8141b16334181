// Ablations for the design choices called out in DESIGN.md:
//   A1  MBO-guided exploration vs uniform random exploration (same budget)
//   A2  sensitivity to the reference measurement duration tau
//   A3  sensitivity to the MBO batch-size cap K
//   A4  surrogate kernel family (Matern-5/2 vs Matern-3/2 vs RBF)
//   A5  the SmartPC-style linear 1-D controller vs BoFL
// All on the AGX CIFAR10-ViT task, 40 rounds, Tmax/Tmin = 2.
#include "figure_common.hpp"
#include "pareto/hypervolume.hpp"

namespace {

using namespace bofl;

struct RunOutcome {
  double energy = 0.0;        // training + MBO [J]
  double hv_coverage = 0.0;   // of the true front
  std::size_t explored = 0;
  bool deadlines_met = true;
};

RunOutcome run_bofl_variant(const device::DeviceModel& model,
                            const core::FlTaskSpec& task,
                            const core::BoflOptions& options,
                            const std::vector<core::RoundSpec>& rounds) {
  core::BoflController controller(model, task.profile, {}, options, 71);
  const core::TaskResult result = core::run_task(controller, rounds);

  std::vector<pareto::Point2> constructed;
  for (std::size_t flat : controller.pareto_flat_ids()) {
    const device::DvfsConfig config = model.space().from_flat(flat);
    constructed.push_back({model.energy(task.profile, config).value(),
                           model.latency(task.profile, config).value()});
  }
  std::vector<pareto::Point2> truth;
  for (const auto& p : core::true_pareto_profiles(model, task.profile)) {
    truth.push_back({p.energy_per_job, p.latency_per_job});
  }
  const pareto::Point2 ref{20.0, 3.5};
  RunOutcome out;
  out.energy = core::total_energy(result).value();
  out.hv_coverage = pareto::hypervolume_2d(constructed, ref) /
                    pareto::hypervolume_2d(truth, ref);
  out.explored = controller.engine().num_observed_candidates();
  out.deadlines_met = result.all_deadlines_met();
  return out;
}

}  // namespace

int main() {
  const device::DeviceModel agx = device::jetson_agx();
  core::FlTaskSpec task = core::cifar10_vit_task(agx.name());
  task.num_rounds = 40;
  const auto rounds = core::make_rounds(task, agx, 2.0, 20221107);
  const core::BoflOptions base = bench::default_bofl_options(agx);

  // --- A1: MBO vs random exploration at matched budget. --------------------
  bench::print_header(
      "Ablation A1: Bayesian vs uniform-random exploration (matched budget)");
  const RunOutcome mbo = run_bofl_variant(agx, task, base, rounds);
  std::vector<pareto::Point2> random_points;
  {
    Rng rng(4242);
    for (std::size_t i = 0; i < mbo.explored; ++i) {
      const auto flat = rng.uniform_index(agx.space().size());
      const device::DvfsConfig config = agx.space().from_flat(flat);
      random_points.push_back({agx.energy(task.profile, config).value(),
                               agx.latency(task.profile, config).value()});
    }
  }
  std::vector<pareto::Point2> truth;
  for (const auto& p : core::true_pareto_profiles(agx, task.profile)) {
    truth.push_back({p.energy_per_job, p.latency_per_job});
  }
  const pareto::Point2 ref{20.0, 3.5};
  const double random_coverage = pareto::hypervolume_2d(random_points, ref) /
                                 pareto::hypervolume_2d(truth, ref);
  // Engine-level ablations: phase-2 suggestions drawn uniformly at random
  // or by marginal Thompson sampling instead of exact EHVI.
  core::BoflOptions random_options = base;
  random_options.mbo.acquisition = bo::AcquisitionKind::kRandomUnobserved;
  const RunOutcome random_controller =
      run_bofl_variant(agx, task, random_options, rounds);
  core::BoflOptions thompson_options = base;
  thompson_options.mbo.acquisition = bo::AcquisitionKind::kThompsonMarginal;
  const RunOutcome thompson_controller =
      run_bofl_variant(agx, task, thompson_options, rounds);
  std::printf(
      "  MBO (EHVI):       %zu configs explored, coverage %.1f%%, task "
      "energy %.0f J\n"
      "  Thompson in-loop: %zu configs explored, coverage %.1f%%, task "
      "energy %.0f J\n"
      "  random in-loop:   %zu configs explored, coverage %.1f%%, task "
      "energy %.0f J\n"
      "  random offline:   %zu configs sampled,  coverage %.1f%%\n",
      mbo.explored, 100.0 * mbo.hv_coverage, mbo.energy,
      thompson_controller.explored, 100.0 * thompson_controller.hv_coverage,
      thompson_controller.energy,
      random_controller.explored, 100.0 * random_controller.hv_coverage,
      random_controller.energy, mbo.explored, 100.0 * random_coverage);

  // --- A2: tau sensitivity. ------------------------------------------------
  bench::print_header(
      "Ablation A2: reference measurement duration tau",
      "short tau = noisy measurements; long tau = less exploitation time");
  std::printf("  %-8s %12s %12s %10s %10s\n", "tau [s]", "energy [J]",
              "coverage", "explored", "deadlines");
  for (const double tau : {1.0, 2.5, 5.0, 10.0}) {
    core::BoflOptions options = base;
    options.tau = Seconds{tau};
    const RunOutcome out = run_bofl_variant(agx, task, options, rounds);
    std::printf("  %-8.1f %12.0f %11.1f%% %10zu %10s\n", tau, out.energy,
                100.0 * out.hv_coverage, out.explored,
                out.deadlines_met ? "all met" : "MISSED");
  }

  // --- A3: batch-size cap. -------------------------------------------------
  bench::print_header("Ablation A3: MBO batch-size cap K");
  std::printf("  %-8s %12s %12s %10s\n", "K cap", "energy [J]", "coverage",
              "explored");
  for (const std::size_t cap : {1UL, 3UL, 10UL, 20UL}) {
    core::BoflOptions options = base;
    options.mbo.max_batch_size = cap;
    const RunOutcome out = run_bofl_variant(agx, task, options, rounds);
    std::printf("  %-8zu %12.0f %11.1f%% %10zu\n", cap, out.energy,
                100.0 * out.hv_coverage, out.explored);
  }

  // --- A4: kernel family. --------------------------------------------------
  bench::print_header("Ablation A4: surrogate kernel family");
  std::printf("  %-10s %12s %12s\n", "kernel", "energy [J]", "coverage");
  for (const auto family :
       {gp::KernelFamily::kMatern52, gp::KernelFamily::kMatern32,
        gp::KernelFamily::kRbf}) {
    core::BoflOptions options = base;
    options.mbo.kernel_family = family;
    const RunOutcome out = run_bofl_variant(agx, task, options, rounds);
    std::printf("  %-10s %12.0f %11.1f%%\n", gp::to_string(family),
                out.energy, 100.0 * out.hv_coverage);
  }

  // --- A5: SmartPC-style linear controller. --------------------------------
  bench::print_header(
      "Ablation A5: 1-D linear pace control (SmartPC-style) vs BoFL",
      "the paper's critique: linear CPU-only models fail on multi-axis "
      "DVFS devices");
  core::LinearModelController linear(agx, task.profile, {}, 72);
  core::PerformantController performant(agx, task.profile, {}, 73);
  const core::TaskResult rl = core::run_task(linear, rounds);
  const core::TaskResult rp = core::run_task(performant, rounds);
  std::printf(
      "  energy [J]: Performant=%.0f  Linear=%.0f  BoFL=%.0f\n"
      "  linear improvement vs Performant: %.1f%%; BoFL improvement: %.1f%%"
      "\n  linear guardian interventions: %lld\n",
      core::total_energy(rp).value(), core::total_energy(rl).value(),
      mbo.energy, 100.0 * core::improvement_vs(rl, rp),
      100.0 * (1.0 - mbo.energy / core::total_energy(rp).value()),
      static_cast<long long>(linear.guardian_interventions()));
  return 0;
}
