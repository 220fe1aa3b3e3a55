#include "models/di.h"

#include <deque>
#include <limits>
#include <vector>

#include "core/dauwe_kernel.h"

namespace mlck::models {

core::DauweOptions di_model_options() noexcept {
  core::DauweOptions opts;
  opts.checkpoint_failures = false;
  opts.restart_failures = false;
  return opts;
}

double DiModel::expected_time(const systems::SystemConfig& system,
                              const core::CheckpointPlan& plan) const {
  return inner_.expected_time(system, plan);
}

core::Prediction DiModel::predict(const systems::SystemConfig& system,
                                  const core::CheckpointPlan& plan) const {
  return inner_.predict(system, plan);
}

DiTechnique::DiTechnique(core::OptimizerOptions optimizer_options)
    : optimizer_options_(optimizer_options) {}

core::TechniqueResult DiTechnique::do_select_plan(
    const systems::SystemConfig& system, util::ThreadPool* pool) const {
  const int top = system.levels() - 1;

  // Candidate level sets: the top two levels, or — for short applications
  // where the expected cost of level-L checkpoints outweighs the risk of a
  // scratch restart — only the penultimate level.
  std::vector<std::vector<int>> candidates;
  if (system.levels() >= 2) {
    candidates.push_back({top - 1, top});
    candidates.push_back({top - 1});
  } else {
    candidates.push_back({top});
  }

  // Di is the Dauwe recursion with failure-free checkpoints and restarts,
  // so it runs the staged Dauwe search over kernels built with those
  // options; the deque keeps every handed-out kernel in place.
  std::deque<core::DauweKernel> kernels;
  const auto factory =
      [&](const std::vector<int>& levels) -> const core::DauweKernel& {
    return kernels.emplace_back(system, levels, di_model_options());
  };

  core::TechniqueResult best;
  best.technique = name();
  best.predicted_time = std::numeric_limits<double>::infinity();
  for (const auto& levels : candidates) {
    core::OptimizerOptions opts = optimizer_options_;
    opts.restrict_levels = levels;
    const auto result =
        core::optimize_intervals_staged(factory, system, opts, pool);
    if (result.expected_time < best.predicted_time) {
      best.plan = result.plan;
      best.predicted_time = result.expected_time;
      best.predicted_efficiency = result.efficiency;
    }
  }
  return best;
}

}  // namespace mlck::models
