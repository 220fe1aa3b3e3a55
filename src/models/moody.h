#pragma once

#include "core/effective.h"
#include "core/model.h"
#include "core/optimizer.h"
#include "core/technique.h"

namespace mlck::models {

/// Moody et al. (SCR) Markov-style expected-time model [5].
///
/// Behaviour-faithful reimplementation of the three properties the paper
/// attributes to the SCR model (the SC'10 Markov chain itself is not
/// published in reusable form; see DESIGN.md):
///
///  1. failures during checkpoints and restarts are modeled (like Dauwe);
///  2. *pessimistic escalation*: a second failure of severity i while
///     restarting from a level-i checkpoint forces the subsequent restart
///     to come from a level-(i+1) checkpoint, losing the level-(i+1)
///     period's progress (paper Sec. IV-G — the source of SCR's
///     efficiency under-estimation at extreme scale);
///  3. steady-state optimization: efficiency is computed per checkpoint
///     pattern, independent of the application's base time, so the model
///     never proposes dropping the top level for short applications
///     (paper Sec. IV-F).
///
/// expected_time() returns T_B divided by the steady-state pattern
/// efficiency; plans that leave any severity without a covering
/// checkpoint level are infeasible (+inf), encoding property 3.
class MoodyModel : public core::ExecutionTimeModel {
 public:
  double expected_time(const systems::SystemConfig& system,
                       const core::CheckpointPlan& plan) const override;

  /// Steady-state efficiency of the pattern (work per period divided by
  /// expected period duration).
  double steady_state_efficiency(const systems::SystemConfig& system,
                                 const core::CheckpointPlan& plan) const;

  /// Expected duration of the full recovery process triggered by a
  /// severity-k failure (used-level index), including retries and
  /// escalations. Exposed for tests.
  static double recovery_cost(const core::EffectiveSystem& eff,
                              const core::CheckpointPlan& plan, int k);
};

/// The paper's "Moody et al." technique: brute-force pattern search driven
/// by the SCR model, all levels always in use.
class MoodyTechnique : public core::Technique {
 public:
  explicit MoodyTechnique(core::OptimizerOptions optimizer_options = {});

  std::string name() const override { return "Moody et al."; }

 protected:
  core::TechniqueResult do_select_plan(const systems::SystemConfig& system,
                                       util::ThreadPool* pool)
      const override;

 private:
  core::OptimizerOptions optimizer_options_;
  MoodyModel model_;
};

}  // namespace mlck::models
