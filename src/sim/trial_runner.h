#pragma once

#include <cstdint>

#include "sim/simulator.h"
#include "stats/quantiles.h"
#include "stats/summary.h"
#include "util/thread_pool.h"

namespace mlck::sim {

/// Aggregate of a Monte-Carlo batch of simulated trials for one
/// (system, plan) pair — the quantity behind every bar of the paper's
/// figures.
struct TrialStats {
  stats::Summary efficiency;      ///< per-trial efficiency distribution
  stats::Quantiles efficiency_quantiles;  ///< tails of that distribution
  stats::Summary total_time;      ///< per-trial wall-clock minutes
  SimBreakdown time_shares;       ///< aggregate breakdown normalized so
                                  ///< total() == 1 (time-weighted across
                                  ///< trials; Figure 3's percentages)
  double mean_failures = 0.0;
  std::size_t trials = 0;
  std::size_t capped_trials = 0;
};

/// The simulator's one batch entry: runs @p trials independent
/// simulations of @p schedule (compiled once by
/// CompiledSchedule::from_{plan,schedule,adaptive}, whatever its kind).
/// @p law picks the failure sampler: null runs the native
/// RandomFailureSource (exponential inter-arrivals at the system MTBF),
/// non-null a RenewalFailureSource drawing inter-arrivals from *law.
/// Trial k draws from a source seeded with derive_stream_seed(seed, k), so
/// results are reproducible and independent of both thread count and
/// execution order. @p pool, when provided, runs trials concurrently.
/// options.capture, when set, records the event streams of the first
/// capture->max_trials trials by index (deterministic under any pool
/// scheduling); options.trace is ignored for the batch in that case, as a
/// single shared event vector cannot be written concurrently.
TrialStats run_trials(const systems::SystemConfig& system,
                      const CompiledSchedule& schedule,
                      const math::FailureDistribution* law,
                      std::size_t trials, std::uint64_t seed,
                      const SimOptions& options = {},
                      util::ThreadPool* pool = nullptr);

/// Plan-shaped spellings of the entry above (native and renewal source),
/// kept as the stable API of the benchmark suite's replay harness
/// (bench/suite/replay.cpp), which calls both. Each compiles @p plan and
/// forwards.
TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan, std::size_t trials,
                      std::uint64_t seed, const SimOptions& options = {},
                      util::ThreadPool* pool = nullptr);
TrialStats run_trials_with_distribution(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan,
    const math::FailureDistribution& interarrival, std::size_t trials,
    std::uint64_t seed, const SimOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace mlck::sim
