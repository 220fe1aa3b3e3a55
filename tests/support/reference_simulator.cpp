#include "support/reference_simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "util/parallel.h"
#include "util/rng.h"

// This file intentionally duplicates the pre-rewrite engine rather than
// sharing code with simulator.cpp/trial_runner.cpp: a baseline that
// drifted with the production engine could not catch a regression in it.
namespace mlck::sim::reference {

namespace {

enum class Cause { kCompute, kCheckpoint, kRestart };

/// What the engine needs from a checkpoint schedule: the used system
/// levels and the next trigger strictly after a given work position.
struct ScheduleView {
  std::vector<int> levels;
  std::function<std::optional<core::CheckpointPoint>(double work)> next;
};

/// Single-trial state machine, generic over the schedule. Time and work
/// are both in minutes; work maps 1:1 onto computation time.
class Runner {
 public:
  Runner(const systems::SystemConfig& system, const ScheduleView& schedule,
         FailureSource& failures, const SimOptions& options)
      : sys_(system),
        schedule_(schedule),
        opts_(options),
        failures_(failures),
        cap_(options.max_time_factor * system.base_time),
        ckpt_(schedule.levels.size()) {}

  TrialResult run() {
    advance_failure_clock();
    const double base = sys_.base_time;

    while (!capped_) {
      if (now_ >= cap_) {
        capped_ = true;
        break;
      }
      // Run computation to the next checkpoint trigger, or to completion.
      const auto trigger = schedule_.next(work_);
      const double target = trigger ? std::min(trigger->work, base) : base;
      const Phase ph = run_phase(target - work_, TraceEvent::Kind::kCompute,
                                 /*level=*/-1);
      compute_time_ += ph.elapsed;
      if (truncated_by_cap(ph)) {
        // The partial segment was real computation, merely never
        // checkpointed; counting it useful keeps the accounting identity
        // and the efficiency metric consistent for capped trials.
        work_ += ph.elapsed;
        annotate_trace_work();
        break;
      }
      if (!ph.completed) {
        handle_failure(ph.severity, Cause::kCompute, ph.elapsed);
        continue;
      }
      work_ = target;
      const bool at_end = work_ >= base - 1e-9;
      if (at_end) work_ = base;
      annotate_trace_work();
      if (at_end) {
        if (!opts_.take_final_checkpoint) break;
        if (do_checkpoint(used_count() - 1)) break;
        continue;  // final checkpoint failed; some work was rolled back
      }
      do_checkpoint(trigger->used_index);
    }

    result_.total_time = now_;
    result_.capped = capped_;
    result_.breakdown.useful = work_;
    // Exact accounting identity: every computed minute either survived or
    // was attributed to a rework bucket when it was rolled back.
    assert(std::abs(compute_time_ -
                    (work_ + result_.breakdown.rework_total())) <
           1e-6 * (1.0 + compute_time_));
    return result_;
  }

 private:
  struct Phase {
    bool completed = false;
    double elapsed = 0.0;
    int severity = -1;
  };

  /// True when run_phase cut the phase short at the time cap (no failure
  /// involved; capped_ is already set).
  static bool truncated_by_cap(const Phase& ph) noexcept {
    return !ph.completed && ph.severity < 0;
  }

  struct CheckpointSlot {
    double work = 0.0;
    bool valid = false;
  };

  int used_count() const noexcept {
    return static_cast<int>(schedule_.levels.size());
  }

  int system_level(int used_index) const noexcept {
    return schedule_.levels[static_cast<std::size_t>(used_index)];
  }

  void advance_failure_clock() {
    const FailureEvent ev = failures_.next();
    next_failure_ += ev.interarrival;
    next_severity_ = ev.severity;
  }

  /// Runs an interruptible phase of the given duration, recording a trace
  /// event when tracing is enabled. The phase is clamped at the time cap.
  Phase run_phase(double duration, TraceEvent::Kind kind, int level) {
    Phase ph;
    const double start = now_;
    const double phase_end = now_ + duration;
    const bool fails = phase_end > next_failure_;
    if (const double end = fails ? next_failure_ : phase_end; end > cap_) {
      capped_ = true;
      ph.completed = false;
      ph.elapsed = cap_ - now_;
      ph.severity = -1;  // truncated by the cap, not by a failure
      now_ = cap_;
    } else if (!fails) {
      now_ = phase_end;
      ph = Phase{true, duration, -1};
    } else {
      ph.completed = false;
      ph.elapsed = next_failure_ - now_;
      ph.severity = next_severity_;
      now_ = next_failure_;
      ++result_.failures;
      advance_failure_clock();
    }
    if (opts_.trace != nullptr) {
      TraceEvent ev{kind, start, now_, level, ph.completed, ph.severity};
      ev.truncated_by_cap = truncated_by_cap(ph);
      // Provisional; sites that change work_ while handling this phase
      // re-annotate via annotate_trace_work before the next event.
      ev.work = work_;
      last_trace_index_ = opts_.trace->size();
      opts_.trace->push_back(ev);
    }
    return ph;
  }

  /// Stamps the most recent trace event with the current committed work,
  /// once the phase's failure handling (rollback, restore) has settled.
  void annotate_trace_work() {
    if (opts_.trace != nullptr) {
      (*opts_.trace)[last_trace_index_].work = work_;
    }
  }

  /// Attempts the checkpoint of used-level @p h; on success refreshes all
  /// used levels <= h. Returns false when a failure interrupted it (the
  /// failure is fully handled before returning).
  bool do_checkpoint(int h) {
    const double cost =
        sys_.checkpoint_cost[static_cast<std::size_t>(system_level(h))];
    const Phase ph =
        run_phase(cost, TraceEvent::Kind::kCheckpoint, system_level(h));
    if (truncated_by_cap(ph)) {
      // Attempt cut short by the cap: its time is a checkpoint attempt
      // that never paid off, same bucket as a failure-interrupted one.
      result_.breakdown.checkpoint_failed += ph.elapsed;
      return false;
    }
    if (ph.completed) {
      result_.breakdown.checkpoint_ok += cost;
      ++result_.checkpoints_completed;
      for (int k = 0; k <= h; ++k) {
        ckpt_[static_cast<std::size_t>(k)] = CheckpointSlot{work_, true};
      }
      return true;
    }
    result_.breakdown.checkpoint_failed += ph.elapsed;
    handle_failure(ph.severity, Cause::kCheckpoint, 0.0);
    return false;
  }

  /// Severity-s failures wipe checkpoint storage below level s.
  void invalidate_below(int severity) {
    for (std::size_t k = 0; k < ckpt_.size(); ++k) {
      if (schedule_.levels[k] < severity) ckpt_[k].valid = false;
    }
  }

  /// Lowest used level >= severity holding a checkpoint.
  std::optional<int> find_restore(int severity) const {
    for (std::size_t k = 0; k < ckpt_.size(); ++k) {
      if (schedule_.levels[k] >= severity && ckpt_[k].valid) {
        return static_cast<int>(k);
      }
    }
    return std::nullopt;
  }

  /// Lowest used level strictly above used-index e holding a checkpoint
  /// (Moody escalation target).
  std::optional<int> find_restore_above(int e) const {
    for (std::size_t k = static_cast<std::size_t>(e) + 1; k < ckpt_.size();
         ++k) {
      if (ckpt_[k].valid) return static_cast<int>(k);
    }
    return std::nullopt;
  }

  void add_rework(Cause cause, double lost_work) {
    if (lost_work <= 0.0) return;
    switch (cause) {
      case Cause::kCompute:
        result_.breakdown.rework_compute += lost_work;
        break;
      case Cause::kCheckpoint:
        result_.breakdown.rework_checkpoint += lost_work;
        break;
      case Cause::kRestart:
        result_.breakdown.rework_restart += lost_work;
        break;
    }
  }

  /// Full failure handling: destroy storage, charge the rolled-back work
  /// to the failing phase, then drive recovery to completion.
  void handle_failure(int severity, Cause cause, double partial_work) {
    invalidate_below(severity);
    std::optional<int> target = find_restore(severity);
    const double attempted = work_ + partial_work;
    const double restore_work =
        target ? ckpt_[static_cast<std::size_t>(*target)].work : 0.0;
    add_rework(cause, attempted - restore_work);
    // Roll the committed-work counter back immediately so a trial capped
    // mid-recovery does not count the discarded work as useful *and* as
    // rework.
    work_ = restore_work;
    annotate_trace_work();
    perform_recovery(target);
  }

  /// Runs restart attempts (with retries/escalations per policy) until the
  /// application is back in a runnable state.
  void perform_recovery(std::optional<int> target) {
    for (;;) {
      if (now_ >= cap_) {
        capped_ = true;
        return;
      }
      if (!target) {
        // Restart from scratch: relaunch is free, all progress is gone,
        // and no checkpoint storage holds data (or we would restore it).
        ++result_.scratch_restarts;
        work_ = 0.0;
        for (auto& slot : ckpt_) slot.valid = false;
        if (opts_.trace != nullptr) {
          opts_.trace->push_back(TraceEvent{
              TraceEvent::Kind::kScratchRestart, now_, now_, -1, true, -1});
        }
        return;
      }
      const int e = *target;
      const int e_level = system_level(e);
      const double cost = sys_.restart_cost[static_cast<std::size_t>(e_level)];
      const Phase ph = run_phase(cost, TraceEvent::Kind::kRestart, e_level);
      if (truncated_by_cap(ph)) {
        // Time attribution only; this was not a failed restart event, so
        // the restarts_failed counter is untouched.
        result_.breakdown.restart_failed += ph.elapsed;
        return;
      }
      if (ph.completed) {
        result_.breakdown.restart_ok += cost;
        ++result_.restarts_completed;
        work_ = ckpt_[static_cast<std::size_t>(e)].work;
        annotate_trace_work();
        return;
      }
      result_.breakdown.restart_failed += ph.elapsed;
      ++result_.restarts_failed;
      const int s2 = ph.severity;
      invalidate_below(s2);

      std::optional<int> next;
      if (opts_.restart_policy == RestartPolicy::kRetrySameLevel) {
        // The checkpoint being loaded survives any failure of severity
        // <= its level, so the realistic response is to try again.
        next = (s2 <= e_level) ? std::optional<int>(e) : find_restore(s2);
      } else {
        if (s2 < e_level) {
          next = e;
        } else if (s2 == e_level) {
          // Pessimistic escalation; the top level has nowhere to go and
          // retries. The abandoned checkpoint is presumed unusable — it
          // must not serve later restores, which would hold work newer
          // than the rolled-back state.
          next = find_restore_above(e);
          if (next) {
            ckpt_[static_cast<std::size_t>(e)].valid = false;
          } else if (e == used_count() - 1) {
            next = e;
          }
        } else {
          next = find_restore(s2);
        }
      }

      const double old_work = ckpt_[static_cast<std::size_t>(e)].work;
      const double new_work =
          next ? ckpt_[static_cast<std::size_t>(*next)].work : 0.0;
      add_rework(Cause::kRestart, old_work - new_work);
      work_ = new_work;
      annotate_trace_work();
      target = next;
    }
  }

  const systems::SystemConfig& sys_;
  const ScheduleView& schedule_;
  const SimOptions& opts_;
  FailureSource& failures_;

  double now_ = 0.0;
  double next_failure_ = 0.0;
  int next_severity_ = -1;
  double cap_ = std::numeric_limits<double>::infinity();
  bool capped_ = false;

  double work_ = 0.0;  ///< committed useful work (minutes)
  double compute_time_ = 0.0;
  /// Index of the most recent run_phase trace event (valid only while
  /// opts_.trace is non-null; see annotate_trace_work).
  std::size_t last_trace_index_ = 0;

  std::vector<CheckpointSlot> ckpt_;  ///< per used level
  TrialResult result_;
};

/// Pre-rewrite Monte-Carlo skeleton: per-trial options copy, per-index
/// parallel_for, serial deterministic aggregation.
TrialStats aggregate_trials(
    std::size_t trials, util::ThreadPool* pool, const SimOptions& options,
    const std::function<TrialResult(std::size_t, const SimOptions&)>&
        run_one) {
  const SimMetrics* metrics = options.metrics;
  TrialTraceCapture* capture = options.capture;
  if (capture != nullptr) {
    capture->trials.assign(std::min(capture->max_trials, trials),
                           TrialTrace{});
    for (std::size_t k = 0; k < capture->trials.size(); ++k) {
      capture->trials[k].trial = k;
    }
  }
  std::vector<TrialResult> results(trials);
  util::parallel_for(pool, trials, [&](std::size_t k) {
    if (capture == nullptr) {
      results[k] = run_one(k, options);
      return;
    }
    SimOptions opts = options;
    opts.capture = nullptr;
    opts.trace =
        k < capture->trials.size() ? &capture->trials[k].events : nullptr;
    results[k] = run_one(k, opts);
  });
  if (capture != nullptr) {
    for (std::size_t k = 0; k < capture->trials.size(); ++k) {
      capture->trials[k].result = results[k];
    }
  }

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
    if (metrics != nullptr && metrics->trial_time_minutes != nullptr) {
      metrics->trial_time_minutes->record(r.total_time);
    }
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

}  // namespace

TrialResult simulate(const systems::SystemConfig& system,
                     const core::CheckpointPlan& plan, FailureSource& failures,
                     const SimOptions& options) {
  plan.validate(system);
  ScheduleView view;
  view.levels = plan.levels;
  view.next = [&plan,
               &system](double work) -> std::optional<core::CheckpointPoint> {
    // Checkpoints sit at integer multiples of tau0; the pattern decides
    // the level. No checkpoint at or beyond completion.
    const double j =
        std::floor((work + core::IntervalSchedule::kWorkEpsilon) / plan.tau0) +
        1.0;
    const double point = j * plan.tau0;
    if (point >= system.base_time - core::IntervalSchedule::kWorkEpsilon) {
      return std::nullopt;
    }
    return core::CheckpointPoint{
        point, plan.checkpoint_after_interval(static_cast<long long>(j))};
  };
  Runner runner(system, view, failures, options);
  return runner.run();
}

TrialResult simulate(const systems::SystemConfig& system,
                     const core::IntervalSchedule& schedule,
                     FailureSource& failures, const SimOptions& options) {
  schedule.validate(system);
  ScheduleView view;
  view.levels = schedule.levels;
  view.next = [&schedule, &system](double work) {
    return schedule.next_checkpoint(work, system.base_time);
  };
  Runner runner(system, view, failures, options);
  return runner.run();
}

TrialResult simulate(const systems::SystemConfig& system,
                     const core::AdaptiveSchedule& schedule,
                     FailureSource& failures, const SimOptions& options) {
  schedule.base.validate(system);
  ScheduleView view;
  view.levels = schedule.base.levels;
  view.next = [&schedule](double work) {
    return schedule.next_checkpoint(work);
  };
  Runner runner(system, view, failures, options);
  return runner.run();
}

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan, std::size_t trials,
                      std::uint64_t seed, const SimOptions& options,
                      util::ThreadPool* pool) {
  return aggregate_trials(
      trials, pool, options, [&](std::size_t k, const SimOptions& opts) {
        RandomFailureSource failures(
            system, util::Rng(util::derive_stream_seed(seed, k)));
        return reference::simulate(system, plan, failures, opts);
      });
}

TrialStats run_trials(const systems::SystemConfig& system,
                      const core::CheckpointPlan& plan,
                      const math::FailureDistribution& interarrival,
                      std::size_t trials, std::uint64_t seed,
                      const SimOptions& options, util::ThreadPool* pool) {
  return aggregate_trials(
      trials, pool, options, [&](std::size_t k, const SimOptions& opts) {
        RenewalFailureSource failures(
            system, interarrival, util::Rng(util::derive_stream_seed(seed, k)));
        return reference::simulate(system, plan, failures, opts);
      });
}

}  // namespace mlck::sim::reference
