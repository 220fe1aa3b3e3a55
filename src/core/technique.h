#pragma once

#include <string>

#include "core/plan.h"
#include "util/thread_pool.h"

namespace mlck::core {

/// What a checkpoint-interval selection technique hands to the runtime: a
/// concrete plan plus the technique's own forecast of how it will perform
/// (the "diamond" values in the paper's figures).
struct TechniqueResult {
  std::string technique;
  CheckpointPlan plan;
  double predicted_time = 0.0;
  double predicted_efficiency = 0.0;
};

/// A complete checkpoint-interval selection strategy: a performance model
/// plus a policy for searching the plan space with it. One implementation
/// exists per baseline technique (Moody, Di, Benoit, Daly, Young); the
/// paper's own Dauwe technique is EvaluationEngine::optimize, reached by
/// name through engine::select_plan.
class Technique {
 public:
  virtual ~Technique() = default;

  /// Display name used in tables ("Moody et al.", ...).
  virtual std::string name() const = 0;

  /// Chooses checkpoint intervals for @p system and predicts their
  /// performance. @p pool, when given, parallelizes internal sweeps.
  TechniqueResult select_plan(const systems::SystemConfig& system,
                              util::ThreadPool* pool = nullptr) const {
    return do_select_plan(system, pool);
  }

 protected:
  /// Implementation hook (non-virtual interface keeps the defaulted pool
  /// argument in one place).
  virtual TechniqueResult do_select_plan(const systems::SystemConfig& system,
                                         util::ThreadPool* pool) const = 0;
};

}  // namespace mlck::core
