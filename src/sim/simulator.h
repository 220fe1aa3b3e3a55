#pragma once

#include <cstddef>
#include <vector>

#include "core/plan.h"
#include "obs/metrics.h"
#include "sim/accounting.h"
#include "sim/compiled_schedule.h"
#include "sim/failure_source.h"
#include "systems/system_config.h"

namespace mlck::sim {

/// Optional Monte-Carlo observability, recorded serially by the trial
/// runner's aggregation loop (never inside the per-trial state machine,
/// so simulation results are bit-identical with or without it). Null
/// members are skipped.
struct SimMetrics {
  obs::Counter* trials = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* checkpoints_completed = nullptr;
  obs::Counter* restarts_completed = nullptr;
  obs::Counter* restarts_failed = nullptr;
  obs::Counter* scratch_restarts = nullptr;
  obs::Counter* capped_trials = nullptr;
  /// Simulated wall-clock minutes per trial (deterministic, unlike host
  /// wall time — see pool.task_latency_ns for the latter).
  obs::Histogram* trial_time_minutes = nullptr;
};

/// How the simulated system reacts to a failure that strikes *during a
/// restart* (the semantics the paper identifies as the key modeling
/// difference between techniques, Sec. IV-G).
enum class RestartPolicy {
  /// A second failure of severity <= the restarting level retries the same
  /// checkpoint (its storage survives). This is the behaviour the paper
  /// argues is realistic, and is what its simulator assumes "for all
  /// techniques". Default.
  kRetrySameLevel,

  /// Moody et al.'s pessimistic assumption: a second failure of the *same*
  /// severity escalates recovery to the next higher checkpoint level.
  /// Provided for the ablation study of that assumption's impact.
  kMoodyEscalate,
};

/// One recorded simulator event, in wall-clock order. Tracing is opt-in
/// (SimOptions::trace / SimOptions::capture) and observe-only: it never
/// affects simulation results. The stream is a complete account of the
/// trial — obs::audit_trial_trace checks that it tiles [0, total_time]
/// and reconstructs the trial's SimBreakdown from it bit-for-bit.
struct TraceEvent {
  enum class Kind {
    kCompute,         ///< a computation segment (possibly interrupted)
    kCheckpoint,      ///< a checkpoint attempt
    kRestart,         ///< a restart attempt
    kScratchRestart,  ///< instantaneous restart-from-scratch
  };
  Kind kind = Kind::kCompute;
  double start = 0.0;  ///< wall-clock minutes
  double end = 0.0;
  int system_level = -1;  ///< checkpoint/restart level; -1 for compute
  bool completed = true;  ///< false when a failure cut the phase short
  int failure_severity = -1;  ///< severity of the interrupting failure
  /// True when the phase was cut short by the wall-clock cap rather than
  /// a failure (completed == false, failure_severity == -1, and the trial
  /// is reported capped). Explicit so auditors and exporters classify
  /// truncation without severity heuristics.
  bool truncated_by_cap = false;
  /// Committed useful work (minutes) after this event *and* its failure
  /// handling: a failed phase records the post-rollback position, a
  /// completed restart the restored checkpoint's position. Makes the
  /// stream self-contained for exact replay (obs::audit_trial_trace).
  double work = 0.0;
};

/// One captured trial from a Monte-Carlo batch: its index, result, and
/// full event stream.
struct TrialTrace {
  std::size_t trial = 0;
  TrialResult result;
  std::vector<TraceEvent> events;
};

/// Bounded, deterministic multi-trial trace capture for sim::run_trials:
/// the first max_trials trials *by trial index* record their event
/// streams into trials[index]. Each trial writes only its own
/// preallocated slot, so the capture is stable regardless of thread count
/// or pool scheduling, and results are bit-identical with or without it.
struct TrialTraceCapture {
  std::size_t max_trials = 8;
  /// Resized by run_trials to min(max_trials, trials) and filled in
  /// trial-index order.
  std::vector<TrialTrace> trials;
};

/// Simulation controls.
struct SimOptions {
  RestartPolicy restart_policy = RestartPolicy::kRetrySameLevel;

  /// Take a checkpoint after the final interval. Off by default (a real
  /// run has nothing left to protect); the analytic models' top-level
  /// count convention matches this (see DESIGN.md).
  bool take_final_checkpoint = false;

  /// Wall-clock cap as a multiple of the application base time; a trial
  /// that has not completed by then is reported with capped = true (its
  /// efficiency metric remains meaningful: useful work over elapsed time).
  /// The cap is a hard bound: a phase in flight when the cap strikes is
  /// truncated at exactly max_time_factor * base_time, so total_time
  /// never exceeds the cap. A truncated phase appears in the trace as
  /// completed = false with failure_severity = -1 (no failure occurred);
  /// its elapsed time is attributed to the breakdown as useful work for
  /// computation (the work was performed, merely never checkpointed) and
  /// to the corresponding failed-attempt bucket for checkpoints/restarts.
  double max_time_factor = 2000.0;

  /// When non-null, every phase is appended here as a TraceEvent.
  /// Non-owning; must outlive the simulate() call.
  std::vector<TraceEvent>* trace = nullptr;

  /// Multi-trial capture consumed by sim::run_trials (simulate() ignores
  /// it): when non-null, run_trials routes each captured trial's trace
  /// into its own slot, overriding `trace` for those trials. Non-owning;
  /// ignored by JSON (de)serialization, never read by the simulation.
  TrialTraceCapture* capture = nullptr;

  /// Observe-only Monte-Carlo counters (docs/OBSERVABILITY.md). Non-owning;
  /// ignored by JSON (de)serialization, never read by the simulation.
  SimMetrics* metrics = nullptr;
};

class NoFailureTrajectory;

/// Event-driven simulation of one application run under multilevel
/// checkpointing with randomly (or scripted-ly) occurring failures — the
/// substrate the paper validates every model against (Sec. IV-B).
///
/// Protocol semantics (paper Secs. II-B, III-B, IV-G):
///  * computation proceeds between work points at which the schedule
///    triggers checkpoints; a level-h checkpoint refreshes every used
///    level <= h (SCR flushes downward);
///  * a severity-s failure destroys checkpoint data below level s and is
///    recovered from the lowest used level >= s holding a checkpoint; if
///    none exists the application restarts from scratch (all progress
///    lost, no restart cost);
///  * failures interrupt computation, checkpoints, and restarts alike;
///    interrupted checkpoints leave the previous checkpoint of that level
///    intact (double buffering);
///  * work rolled back is re-executed, and every second of wall-clock time
///    is attributed to exactly one SimBreakdown bucket.
///
/// Every schedule kind runs through one engine: compile it with
/// CompiledSchedule::from_plan (an SCR-style pattern plan: checkpoints
/// after every tau0 of work, levels following the pattern counts),
/// from_schedule (independent per-level periods; see
/// core::IntervalSchedule for the collision rule) or from_adaptive (the
/// horizon-aware wrapper, Sec. IV-F generalized; see
/// core::AdaptiveSchedule), and run it here.
///
/// This overload runs one trial with the failure source devirtualized: the
/// segment loop is instantiated directly against the concrete source
/// type, so the per-event draw inlines. Callers running many trials
/// against one schedule (sim::run_trials) compile once and call this per
/// trial.
///
/// @p fast, when non-null and applicable (see sim/fast_forward.h), lets
/// the trial jump over the uninterrupted prefix before its first failure
/// using the batch's precomputed no-failure trajectory — same bits,
/// O(failures) instead of O(segments) per trial. Null runs the plain
/// loop.
TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule,
                     RandomFailureSource& failures,
                     const SimOptions& options = {},
                     const NoFailureTrajectory* fast = nullptr);

/// Devirtualized renewal-process fast path (see above).
TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule,
                     RenewalFailureSource& failures,
                     const SimOptions& options = {},
                     const NoFailureTrajectory* fast = nullptr);

/// Generic path for custom FailureSource implementations (one virtual
/// call per event); bit-identical to the devirtualized overloads above on
/// the same source.
TrialResult simulate(const systems::SystemConfig& system,
                     const CompiledSchedule& schedule, FailureSource& failures,
                     const SimOptions& options = {},
                     const NoFailureTrajectory* fast = nullptr);

}  // namespace mlck::sim
