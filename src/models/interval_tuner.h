#pragma once

#include <cstdint>

#include "core/interval_schedule.h"
#include "math/distribution.h"
#include "systems/system_config.h"
#include "util/thread_pool.h"

namespace mlck::models {

/// Controls for the simulation-based interval tuner.
struct IntervalTunerOptions {
  std::size_t trials = 48;      ///< Monte-Carlo trials per candidate
  std::uint64_t seed = 1;       ///< base seed; *shared* across candidates
  int max_rounds = 12;          ///< coordinate-descent rounds
  double step = 0.30;           ///< initial relative period step
  double min_step = 0.02;       ///< stop once the step shrinks below this
};

/// Result of tuning: the schedule plus its estimated efficiency.
struct IntervalTuneResult {
  core::IntervalSchedule schedule;
  double efficiency = 0.0;      ///< mean simulated efficiency at `seed`
  std::size_t evaluations = 0;  ///< candidate schedules simulated
};

/// Tunes an interval-based schedule by direct simulation.
///
/// Interval schedules have no closed-form execution-time model here (the
/// paper's models are pattern-based), so the tuner optimizes the
/// Monte-Carlo estimate itself: coordinate descent over the per-level
/// periods, multiplying each by (1 ± step) and keeping improvements,
/// halving the step when a round stalls. All candidates are scored on
/// the *same* failure streams (common random numbers), which turns the
/// noisy comparison between neighbouring schedules into a low-variance
/// paired one — without it the descent direction would be noise below a
/// few hundred trials.
///
/// Starts from the relaxed closed-form schedule (interval_baseline.h).
/// Candidates are simulated under @p law (null: the native exponential
/// source; see sim::run_trials).
IntervalTuneResult tune_interval_schedule(
    const systems::SystemConfig& system,
    const IntervalTunerOptions& options = {},
    util::ThreadPool* pool = nullptr,
    const math::FailureDistribution* law = nullptr);

}  // namespace mlck::models
