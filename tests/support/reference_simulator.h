#pragma once

#include <cstdint>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "core/plan.h"
#include "sim/failure_source.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "util/thread_pool.h"

/// The simulation engine as it stood before the batch-oriented rewrite,
/// preserved verbatim: per-segment std::function schedule dispatch, a
/// virtual FailureSource::next() per event, per-trial severity-CDF and
/// checkpoint-slot allocations. It is the oracle for the bit-identity gate
/// (test_batch_engine) — the batch engine must reproduce this engine's
/// run_trials output byte for byte on equal seeds. Not for production
/// use; deliberately never optimized.
namespace mlck::sim::reference {

/// Pre-rewrite single-trial engine, pattern-plan schedule.
TrialResult simulate(const systems::SystemConfig& system,
                     const core::CheckpointPlan& plan, FailureSource& failures,
                     const SimOptions& options = {});

/// Pre-rewrite single-trial engine, interval schedule.
TrialResult simulate(const systems::SystemConfig& system,
                     const core::IntervalSchedule& schedule,
                     FailureSource& failures, const SimOptions& options = {});

/// Pre-rewrite single-trial engine, adaptive schedule.
TrialResult simulate(const systems::SystemConfig& system,
                     const core::AdaptiveSchedule& schedule,
                     FailureSource& failures, const SimOptions& options = {});

/// Pre-rewrite Monte-Carlo batch (exponential failures): one
/// RandomFailureSource constructed per trial on stream
/// derive_stream_seed(seed, k), serial deterministic aggregation.
TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan, std::size_t trials,
                      std::uint64_t seed, const SimOptions& options = {},
                      util::ThreadPool* pool = nullptr);

/// Pre-rewrite Monte-Carlo batch with renewal inter-arrivals.
TrialStats run_trials_with_distribution(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan,
    const math::FailureDistribution& interarrival, std::size_t trials,
    std::uint64_t seed, const SimOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace mlck::sim::reference
