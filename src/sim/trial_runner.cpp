#include "sim/trial_runner.h"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/compiled_schedule.h"
#include "sim/fast_forward.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mlck::sim {

namespace {

/// Readies the capture slots for a batch of @p trials. resize + clear
/// instead of assign so a capture object reused across batches (the trace
/// CLI's pattern) keeps each slot's TraceEvent capacity — the arenas — and
/// the per-trial streams append without reallocating.
void prepare_capture(TrialTraceCapture& capture, std::size_t trials) {
  capture.trials.resize(std::min(capture.max_trials, trials));
  for (std::size_t k = 0; k < capture.trials.size(); ++k) {
    capture.trials[k].trial = k;
    capture.trials[k].result = TrialResult{};
    capture.trials[k].events.clear();
  }
}

/// Serial, index-ordered reduction of per-trial results — deterministic
/// and independent of pool size by construction (Welford accumulation
/// order is the trial order, never the completion order). Metrics are
/// recorded here, after the parallel phase, so instrumentation never
/// touches the trial state machines.
TrialStats aggregate_results(const std::vector<TrialResult>& results,
                             const SimOptions& options) {
  const SimMetrics* metrics = options.metrics;
  const std::size_t trials = results.size();
  TrialStats stats;
  stats.trials = trials;
  stats::Welford eff;
  stats::Welford time;
  SimBreakdown sum;
  std::vector<double> efficiencies;
  efficiencies.reserve(trials);
  double failures_total = 0.0;
  long long checkpoints_total = 0;
  long long restarts_ok_total = 0;
  long long restarts_failed_total = 0;
  long long scratch_total = 0;
  for (const TrialResult& r : results) {
    eff.add(r.efficiency());
    efficiencies.push_back(r.efficiency());
    time.add(r.total_time);
    sum += r.breakdown;
    failures_total += static_cast<double>(r.failures);
    checkpoints_total += r.checkpoints_completed;
    restarts_ok_total += r.restarts_completed;
    restarts_failed_total += r.restarts_failed;
    scratch_total += r.scratch_restarts;
    if (r.capped) ++stats.capped_trials;
  }
  if (metrics != nullptr) {
    const auto bump = [](obs::Counter* c, auto n) {
      if (c != nullptr && n > 0) c->add(static_cast<std::uint64_t>(n));
    };
    bump(metrics->trials, trials);
    bump(metrics->failures, static_cast<long long>(failures_total));
    bump(metrics->checkpoints_completed, checkpoints_total);
    bump(metrics->restarts_completed, restarts_ok_total);
    bump(metrics->restarts_failed, restarts_failed_total);
    bump(metrics->scratch_restarts, scratch_total);
    bump(metrics->capped_trials, stats.capped_trials);
  }
  stats.efficiency = stats::summarize(eff);
  stats.efficiency_quantiles = stats::summary_quantiles(efficiencies);
  stats.total_time = stats::summarize(time);
  if (trials > 0) {
    stats.mean_failures = failures_total / static_cast<double>(trials);
    const double total = sum.total();
    if (total > 0.0) {
      stats.time_shares = sum;
      stats.time_shares.useful /= total;
      stats.time_shares.checkpoint_ok /= total;
      stats.time_shares.checkpoint_failed /= total;
      stats.time_shares.restart_ok /= total;
      stats.time_shares.restart_failed /= total;
      stats.time_shares.rework_compute /= total;
      stats.time_shares.rework_checkpoint /= total;
      stats.time_shares.rework_restart /= total;
    }
  }
  return stats;
}

/// Batch Monte-Carlo skeleton over a schedule compiled once. Per-chunk
/// state — the failure source (severity CDF built once per chunk, rewound
/// per trial via reset()) and the options copy — is hoisted out of the
/// trial loop; per-trial results land in their own slots, so chunk
/// boundaries cannot affect them. Trial k always draws from stream
/// derive_stream_seed(seed, k), making the output byte-identical to the
/// pre-batch engine (sim::reference) and independent of pool size.
template <class Source, class MakeSource>
TrialStats batch_trials(const systems::SystemConfig& system,
                        const CompiledSchedule& schedule, std::size_t trials,
                        std::uint64_t seed, const SimOptions& options,
                        util::ThreadPool* pool,
                        const MakeSource& make_source) {
  TrialTraceCapture* capture = options.capture;
  if (capture != nullptr) prepare_capture(*capture, trials);
  const std::size_t captured =
      capture != nullptr ? capture->trials.size() : 0;

  // One no-failure trajectory for the whole batch (one dry pass over the
  // segments, shared read-only by every chunk): trials jump past their
  // uninterrupted prefix instead of re-simulating it. Captured/traced
  // trials skip it per trial inside the runner.
  const NoFailureTrajectory trajectory(system, schedule, options);
  const NoFailureTrajectory* fast =
      trajectory.valid() ? &trajectory : nullptr;

  // Per-trial time histogram, recorded inside the parallel phase: each
  // chunk fills a private non-atomic HistogramBatch alongside its trial
  // loop, and the batches merge serially afterwards, sorted by chunk
  // start. Recording in the serial reduction instead would put the whole
  // per-sample cost on the critical path — with many workers that alone
  // blew the bench_obs <= 2% attached-overhead budget. Counts, buckets,
  // min, and max are exact integers/extrema, so they stay independent of
  // the pool size; only the histogram's floating-point sum adopts the
  // chunk layout's addition order (deterministic for a fixed pool size,
  // like every other chunk-granular quantity here).
  obs::Histogram* trial_times =
      options.metrics != nullptr ? options.metrics->trial_time_minutes
                                 : nullptr;
  std::mutex batches_mutex;
  std::vector<std::pair<std::size_t, obs::HistogramBatch>> batches;

  std::vector<TrialResult> results(trials);
  util::parallel_for_chunks(pool, trials, [&](std::size_t begin,
                                              std::size_t end) {
    Source source =
        make_source(util::Rng(util::derive_stream_seed(seed, begin)));
    SimOptions opts = options;
    opts.capture = nullptr;
    obs::HistogramBatch chunk_times;
    for (std::size_t k = begin; k < end; ++k) {
      source.reset(util::Rng(util::derive_stream_seed(seed, k)));
      if (capture != nullptr) {
        // Each captured trial traces into its own preallocated slot; the
        // shared options.trace pointer, racy across concurrent trials, is
        // suppressed for the batch.
        opts.trace = k < captured ? &capture->trials[k].events : nullptr;
      }
      results[k] = simulate(system, schedule, source, opts, fast);
      if (trial_times != nullptr) {
        chunk_times.record(results[k].total_time);
      }
    }
    if (trial_times != nullptr && chunk_times.count() > 0) {
      std::lock_guard<std::mutex> lock(batches_mutex);
      batches.emplace_back(begin, std::move(chunk_times));
    }
  });
  if (trial_times != nullptr) {
    std::sort(batches.begin(), batches.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [begin, batch] : batches) batch.flush(trial_times);
  }
  if (capture != nullptr) {
    for (std::size_t k = 0; k < captured; ++k) {
      capture->trials[k].result = results[k];
    }
  }
  return aggregate_results(results, options);
}

}  // namespace

TrialStats run_trials(const systems::SystemConfig& system,
                      const CompiledSchedule& schedule,
                      const math::FailureDistribution* law,
                      std::size_t trials, std::uint64_t seed,
                      const SimOptions& options, util::ThreadPool* pool) {
  if (law == nullptr) {
    return batch_trials<RandomFailureSource>(
        system, schedule, trials, seed, options, pool,
        [&](util::Rng rng) { return RandomFailureSource(system, rng); });
  }
  return batch_trials<RenewalFailureSource>(
      system, schedule, trials, seed, options, pool, [&](util::Rng rng) {
        return RenewalFailureSource(system, *law, rng);
      });
}

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan, std::size_t trials,
                      std::uint64_t seed, const SimOptions& options,
                      util::ThreadPool* pool) {
  return run_trials(system, CompiledSchedule::from_plan(system, plan),
                    nullptr, trials, seed, options, pool);
}

TrialStats run_trials_with_distribution(
    const systems::SystemConfig& system, const core::CheckpointPlan& plan,
    const math::FailureDistribution& interarrival, std::size_t trials,
    std::uint64_t seed, const SimOptions& options, util::ThreadPool* pool) {
  return run_trials(system, CompiledSchedule::from_plan(system, plan),
                    &interarrival, trials, seed, options, pool);
}

}  // namespace mlck::sim
