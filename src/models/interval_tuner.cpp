#include "models/interval_tuner.h"

#include <algorithm>

#include "models/interval_baseline.h"
#include "sim/trial_runner.h"

namespace mlck::models {

namespace {

double score(const systems::SystemConfig& system,
             const core::IntervalSchedule& schedule,
             const IntervalTunerOptions& options, util::ThreadPool* pool,
             const math::FailureDistribution* law, std::size_t& evaluations) {
  ++evaluations;
  // Same seed for every candidate: common random numbers.
  const auto stats = sim::run_trials(
      system, sim::CompiledSchedule::from_schedule(system, schedule), law,
      options.trials, options.seed, {}, pool);
  return stats.efficiency.mean;
}

}  // namespace

IntervalTuneResult tune_interval_schedule(
    const systems::SystemConfig& system, const IntervalTunerOptions& options,
    util::ThreadPool* pool, const math::FailureDistribution* law) {
  IntervalTuneResult result;
  result.schedule = relaxed_interval_schedule(system);
  result.efficiency =
      score(system, result.schedule, options, pool, law,
            result.evaluations);

  double step = options.step;
  for (int round = 0; round < options.max_rounds; ++round) {
    bool improved = false;
    for (std::size_t k = 0; k < result.schedule.periods.size(); ++k) {
      for (const double factor : {1.0 + step, 1.0 / (1.0 + step)}) {
        core::IntervalSchedule candidate = result.schedule;
        candidate.periods[k] =
            std::clamp(candidate.periods[k] * factor,
                       system.base_time * 1e-4, system.base_time / 2.0);
        const double eff =
            score(system, candidate, options, pool, law, result.evaluations);
        if (eff > result.efficiency) {
          result.efficiency = eff;
          result.schedule = std::move(candidate);
          improved = true;
        }
      }
    }
    if (!improved) {
      step /= 2.0;
      if (step < options.min_step) break;
    }
  }
  return result;
}

}  // namespace mlck::models
