#pragma once

#include <memory>
#include <utility>

#include "core/effective.h"
#include "core/model.h"
#include "math/failure_law.h"

namespace mlck::core {

/// Feature switches for the Dauwe recursion. The defaults implement the
/// paper's full model; the flags exist for the ablation studies of
/// Sec. IV-D (what breaks when failures during checkpoint/restart events
/// are ignored) and for expressing the Di et al. baseline, whose model
/// assumes checkpoints and restarts are failure-free.
struct DauweOptions {
  /// Model failures *during checkpoints* (alpha_i terms, Eqns. 8-10).
  bool checkpoint_failures = true;

  /// Model failures *during restarts* (zeta_i terms, Eqns. 12/14).
  bool restart_failures = true;

  /// Eqn. 10 weights lost intervals by S_k = lambda_k / lambda (share of
  /// *all* failures) exactly as printed. Setting this renormalizes over
  /// the severities <= i that can actually interrupt a level-i checkpoint
  /// (lambda_k / lambda_c); exposed as an ablation of the printed
  /// equation, off by default for fidelity.
  bool renormalize_severity_shares = false;
};

/// The paper's contribution (Sec. III): a hierarchical continuous model of
/// expected application execution time under pattern-based multilevel
/// checkpointing, accounting for failures during computation, checkpoints
/// *and* restarts, plus the application's finite baseline time.
///
/// The recursion evaluates, per used level k (paper Eqns. 4-14):
///
///   gamma_k = expected severity-k failures per tau_k interval  (Eqn. 5)
///   alpha_k = expected failed level-k checkpoints               (Eqn. 8)
///   beta_k  = expected successful level-k restarts              (Eqn. 11)
///   zeta_k  = expected failed level-k restarts                  (Eqn. 12)
///   tau_{k+1} = m_k tau_k + T_delta + T_delta' + T_R + T_R'
///             + T_W_tau + T_W_delta                             (Eqn. 4)
///
/// Conventions pinned down where the paper is ambiguous (see DESIGN.md):
/// the recursion base is tau_1 = tau0; interior levels contain N_k + 1
/// sub-intervals and N_k standalone checkpoints; the top level contains
/// N_L intervals and N_L checkpoints (Eqn. 3), so that with zero overhead
/// T_ML == T_B exactly. Severities above the top *used* level wrap the
/// whole execution in one more retry stage (restart-from-scratch).
///
/// Plans with fewer than one top-level period (tau0 * prod(N+1) > T_B) are
/// reported as infeasible (+inf), matching the paper's solution-space
/// bound.
class DauweModel : public ExecutionTimeModel {
 public:
  /// @p law generalizes the failure process beyond the paper's
  /// exponential assumption (Sec. III derives the recursion "for a chosen
  /// probability density function"): per-severity rates from the system
  /// config pick each level's family member (mean 1 / rate). Null (the
  /// exponential law) keeps the closed-form fast path.
  explicit DauweModel(DauweOptions options = {},
                      std::shared_ptr<const math::FailureLaw> law =
                          nullptr) noexcept
      : options_(options), law_(std::move(law)) {}

  double expected_time(const systems::SystemConfig& system,
                       const CheckpointPlan& plan) const override;

  Prediction predict(const systems::SystemConfig& system,
                     const CheckpointPlan& plan) const override;

  const DauweOptions& options() const noexcept { return options_; }
  const std::shared_ptr<const math::FailureLaw>& law() const noexcept {
    return law_;
  }

 private:
  DauweOptions options_;
  std::shared_ptr<const math::FailureLaw> law_;
};

}  // namespace mlck::core
