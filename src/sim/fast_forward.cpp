#include "sim/fast_forward.h"

#include <algorithm>
#include <cmath>

namespace mlck::sim {

// Mirrors Runner::run / run_phase / do_checkpoint for the uninterrupted
// case, operation for operation. Any change to the engine's no-failure
// arithmetic (phase ordering, the at_end tolerance, the accumulation
// order) must be reflected here; the batch-vs-reference identity tests
// (BatchIdentity.*) catch a divergence on the first trial.
NoFailureTrajectory::NoFailureTrajectory(const systems::SystemConfig& system,
                                         const CompiledSchedule& schedule,
                                         const SimOptions& options) {
  take_final_checkpoint_ = options.take_final_checkpoint;
  max_time_factor_ = options.max_time_factor;
  if (!schedule.compiled()) return;
  const auto& trig = schedule.triggers();
  const auto& levels = schedule.levels();
  const double base = system.base_time;
  const double cap = options.max_time_factor * system.base_time;
  const int top = static_cast<int>(levels.size()) - 1;

  double now = 0.0;
  double work = 0.0;
  double compute_time = 0.0;
  double ckpt_ok = 0.0;
  long long checkpoints = 0;
  seg_end_.reserve(trig.size());
  seg_work_.reserve(trig.size());
  seg_compute_.reserve(trig.size());
  seg_ckpt_ok_.reserve(trig.size());

  // One iteration per trigger segment, exactly the Runner's loop with
  // every `fails` branch false. A cap strike anywhere disqualifies the
  // fast path (valid_ stays false): capped trials must run the plain
  // loop, which truncates phases with the cap's own arithmetic.
  bool at_end = false;
  for (std::size_t i = 0; i < trig.size() && !at_end; ++i) {
    if (now >= cap) return;
    const double target = std::min(trig[i].work, base);
    const double duration = target - work;
    double phase_end = now + duration;  // compute phase
    if (phase_end > cap) return;
    now = phase_end;
    compute_time += duration;
    work = target;
    at_end = work >= base - 1e-9;
    if (at_end) {
      work = base;
      if (!take_final_checkpoint_) break;
    }
    const int h = at_end ? top : trig[i].used_index;
    const double cost =
        system.checkpoint_cost[static_cast<std::size_t>(
            levels[static_cast<std::size_t>(h)])];
    phase_end = now + cost;  // checkpoint phase
    if (phase_end > cap) return;
    now = phase_end;
    ckpt_ok += cost;
    ++checkpoints;
    if (!at_end) {
      // Only a full mid-run segment is a resume point; the at_end case
      // above ends the trial and belongs to the tail.
      seg_end_.push_back(now);
      seg_work_.push_back(work);
      seg_compute_.push_back(compute_time);
      seg_ckpt_ok_.push_back(ckpt_ok);
    }
  }

  if (!at_end) {
    // Tail: the final partial segment past the last trigger.
    if (now >= cap) return;
    const double duration = base - work;
    double phase_end = now + duration;
    if (phase_end > cap) return;
    now = phase_end;
    compute_time += duration;
    work = base;
    if (take_final_checkpoint_) {
      const double cost =
          system.checkpoint_cost[static_cast<std::size_t>(
              levels[static_cast<std::size_t>(top)])];
      phase_end = now + cost;
      if (phase_end > cap) return;
      now = phase_end;
      ckpt_ok += cost;
      ++checkpoints;
    }
  }

  final_end_ = now;
  full_result_.total_time = now;
  full_result_.capped = false;
  full_result_.failures = 0;
  full_result_.checkpoints_completed = checkpoints;
  full_result_.breakdown.useful = work;
  full_result_.breakdown.checkpoint_ok = ckpt_ok;
  valid_ = true;
}

}  // namespace mlck::sim
