#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "sim/compiled_schedule.h"
#include "sim/fast_forward.h"

namespace mlck::sim {

namespace {

enum class Cause { kCompute, kCheckpoint, kRestart };

/// Single-trial state machine, generic over the concrete failure-source
/// type. Time and work are both in minutes; work maps 1:1 onto
/// computation time.
///
/// FS is a template parameter (not the FailureSource base) so that when
/// the trial runner instantiates the engine with RandomFailureSource or
/// RenewalFailureSource, the per-event draw — the innermost operation of
/// every Monte-Carlo batch — inlines into the segment loop instead of
/// going through a virtual call. The schedule side is devirtualized the
/// same way: triggers come from a CompiledSchedule cursor (flat array
/// lookup) rather than a per-segment std::function. Checkpoint slots for
/// the common case (<= 8 used levels) live inline in the runner frame, so
/// a trial allocates nothing.
template <class FS>
class Runner {
 public:
  Runner(const systems::SystemConfig& system, const CompiledSchedule& schedule,
         FS& failures, const SimOptions& options,
         const NoFailureTrajectory* fast)
      : sys_(system),
        schedule_(schedule),
        levels_(schedule.levels().data()),
        used_(schedule.levels().size()),
        cursor_(schedule.cursor()),
        opts_(options),
        failures_(failures),
        fast_(fast != nullptr && fast->applicable(options) ? fast : nullptr),
        cap_(options.max_time_factor * system.base_time) {
    if (used_ <= kInlineSlots) {
      ckpt_ = inline_slots_;
    } else {
      heap_slots_.resize(used_);
      ckpt_ = heap_slots_.data();
    }
  }

  TrialResult run() {
    advance_failure_clock();
    const double base = sys_.base_time;

    if (fast_ != nullptr) {
      // Jump over the uninterrupted prefix: the trajectory's recorded
      // state is produced by the very op sequence the loop below would
      // execute, so resuming from it is bitwise equivalent to having run
      // every skipped segment (see sim/fast_forward.h).
      if (next_failure_ >= fast_->final_end()) {
        // No phase end exceeds the first failure time, so no phase fails
        // and the trial is the precomputed no-failure run outright.
        return fast_->full_result();
      }
      const auto& ends = fast_->segment_end();
      const std::size_t s = static_cast<std::size_t>(
          std::upper_bound(ends.begin(), ends.end(), next_failure_) -
          ends.begin());
      if (s > 0) resume_after_segment(s - 1);
    }

    while (!capped_) {
      if (now_ >= cap_) {
        capped_ = true;
        break;
      }
      // Run computation to the next checkpoint trigger, or to completion.
      const auto trigger = cursor_.next(work_);
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

  static constexpr std::size_t kInlineSlots = 8;

  int used_count() const noexcept { return static_cast<int>(used_); }

  int system_level(int used_index) const noexcept {
    return levels_[static_cast<std::size_t>(used_index)];
  }

  /// Restores the exact engine state at the completion of full segment
  /// @p s of the no-failure trajectory (trigger s's checkpoint just
  /// committed). Slots are reconstructed from the trigger sequence: the
  /// last checkpoint at used level h refreshed every slot <= h, so a
  /// backward walk assigning only still-unset slots reproduces the array.
  void resume_after_segment(std::size_t s) {
    now_ = fast_->end_now(s);
    work_ = fast_->end_work(s);
    compute_time_ = fast_->end_compute_time(s);
    result_.breakdown.checkpoint_ok = fast_->end_checkpoint_ok(s);
    result_.checkpoints_completed = static_cast<long long>(s) + 1;
    const auto& trig = schedule_.triggers();
    std::size_t remaining = used_;
    for (std::size_t j = s + 1; j-- > 0 && remaining > 0;) {
      const int h = trig[j].used_index;
      const double w = fast_->end_work(j);
      for (int k = 0; k <= h; ++k) {
        CheckpointSlot& slot = ckpt_[static_cast<std::size_t>(k)];
        if (!slot.valid) {
          slot = CheckpointSlot{w, true};
          --remaining;
        }
      }
    }
  }

  void advance_failure_clock() {
    FailureEvent ev;
    if constexpr (requires(FS& f) { f.draw(); }) {
      ev = failures_.draw();
    } else {
      ev = failures_.next();
    }
    next_failure_ += ev.interarrival;
    next_severity_ = ev.severity;
  }

  /// Runs an interruptible phase of the given duration, recording a trace
  /// event when tracing is enabled. The phase is clamped at the time cap:
  /// whatever would have ended past cap_ — the phase itself or the
  /// failure that interrupts it — is truncated there instead, so now_
  /// (and hence total_time) never exceeds the cap.
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
    for (std::size_t k = 0; k < used_; ++k) {
      if (levels_[k] < severity) ckpt_[k].valid = false;
    }
  }

  /// Lowest used level >= severity holding a checkpoint.
  std::optional<int> find_restore(int severity) const {
    for (std::size_t k = 0; k < used_; ++k) {
      if (levels_[k] >= severity && ckpt_[k].valid) {
        return static_cast<int>(k);
      }
    }
    return std::nullopt;
  }

  /// Lowest used level strictly above used-index e holding a checkpoint
  /// (Moody escalation target).
  std::optional<int> find_restore_above(int e) const {
    for (std::size_t k = static_cast<std::size_t>(e) + 1; k < used_; ++k) {
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
        for (std::size_t k = 0; k < used_; ++k) ckpt_[k].valid = false;
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
  const CompiledSchedule& schedule_;
  const int* levels_;  ///< used system levels (borrowed from the schedule)
  std::size_t used_;
  CompiledSchedule::Cursor cursor_;
  const SimOptions& opts_;
  FS& failures_;
  const NoFailureTrajectory* fast_;  ///< null = plain loop from work 0

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

  CheckpointSlot inline_slots_[kInlineSlots];
  std::vector<CheckpointSlot> heap_slots_;  ///< only when > kInlineSlots
  CheckpointSlot* ckpt_;                    ///< per used level
  TrialResult result_;
};

template <class FS>
TrialResult run_one(const systems::SystemConfig& system,
                    const CompiledSchedule& schedule, FS& failures,
                    const SimOptions& options,
                    const NoFailureTrajectory* fast = nullptr) {
  Runner<FS> runner(system, schedule, failures, options, fast);
  return runner.run();
}

}  // namespace

TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule,
                     RandomFailureSource& failures, const SimOptions& options,
                     const NoFailureTrajectory* fast) {
  return run_one(system, schedule, failures, options, fast);
}

TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule,
                     RenewalFailureSource& failures, const SimOptions& options,
                     const NoFailureTrajectory* fast) {
  return run_one(system, schedule, failures, options, fast);
}

TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule, FailureSource& failures,
                     const SimOptions& options,
                     const NoFailureTrajectory* fast) {
  return run_one(system, schedule, failures, options, fast);
}

}  // namespace mlck::sim
