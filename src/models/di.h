#pragma once

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "core/technique.h"

namespace mlck::models {

/// The DauweOptions configuration that expresses the Di et al. model
/// assumptions the paper compares against (Sec. II-C / IV-G): checkpoint
/// and restart events are failure-free, while failures during computation
/// and the application's finite base time are modeled.
core::DauweOptions di_model_options() noexcept;

/// Di et al. two-level expected-time model [17], expressed as the shared
/// hierarchical recursion with the failed-checkpoint (alpha) and
/// failed-restart (zeta) terms switched off. This is a behaviour-faithful
/// reimplementation of the published model's assumptions, not a port of
/// its exact algebra (see DESIGN.md); its signature property — predicted
/// time below the simulated time, i.e. *over*-estimated efficiency, by a
/// margin that grows as MTBF approaches the C/R costs — is what Figure 6
/// exercises.
class DiModel : public core::ExecutionTimeModel {
 public:
  double expected_time(const systems::SystemConfig& system,
                       const core::CheckpointPlan& plan) const override;

  core::Prediction predict(const systems::SystemConfig& system,
                           const core::CheckpointPlan& plan) const override;

 private:
  core::DauweModel inner_{di_model_options()};
};

/// The paper's "Di et al." technique: offline pattern-based optimization
/// restricted to *two* checkpoint levels. On systems with more levels only
/// the top two (L-1, L) are used, lower severities all restarting from the
/// level-(L-1) checkpoint (Sec. IV-C). Because the model accounts for the
/// application's base time, the search also considers dropping the
/// expensive top level (Sec. IV-F). Each candidate is searched by
/// core::optimize_intervals_staged over DiModel's kernel, which selects
/// the plan core::optimize_intervals over DiModel would, bit for bit.
class DiTechnique : public core::Technique {
 public:
  explicit DiTechnique(core::OptimizerOptions optimizer_options = {});

  std::string name() const override { return "Di et al."; }

 protected:
  core::TechniqueResult do_select_plan(const systems::SystemConfig& system,
                                       util::ThreadPool* pool)
      const override;

 private:
  core::OptimizerOptions optimizer_options_;
};

}  // namespace mlck::models
