#pragma once

#include <string>
#include <vector>

#include "core/optimizer.h"
#include "verify/generators.h"
#include "verify/oracle.h"

namespace mlck::verify {

/// One failed check: which invariant broke and the concrete numbers.
struct CheckFailure {
  std::string check;
  std::string detail;
};

/// Outcome of one invariant family on one case.
struct CheckResult {
  std::vector<CheckFailure> failures;
  /// Largest scaled oracle error observed (oracle checks only; 0 elsewhere).
  double max_error = 0.0;

  bool ok() const noexcept { return failures.empty(); }
  void fail(std::string check, std::string detail);
  void merge(CheckResult other);
};

/// Oracle agreement: DauweModel::expected_time (under the case's failure
/// law) against the quadrature oracle within the (condition-widened)
/// tolerance policy, on the case's plan and on a handful of tau0 variants
/// around it. Every law shares the one policy: the model's primitives are
/// closed forms, exact to floating point (docs/MODELS.md).
CheckResult check_oracle_agreement(const VerifyCase& c,
                                   const TolerancePolicy& policy = {});

/// Cross-implementation bit-identity: DauweModel, DauweKernel's per-plan
/// entry points, the staged Cursor drive, and the cached EvaluationEngine
/// — all built with the case's failure law — must produce *bit-equal*
/// expected times and predictions on the case. Every comparison is ==,
/// never a tolerance.
CheckResult check_bit_identity(const VerifyCase& c);

/// Metamorphic properties of the closed-form model on the case:
///   * doubling every failure rate (halving MTBF) never decreases the
///     expected time;
///   * scaling every checkpoint cost up never decreases it;
///   * scaling T_B up never decreases it (checked when the base plan is
///     feasible; a longer application can only add work);
///   * expected time is never below T_B, and never NaN.
CheckResult check_metamorphic(const VerifyCase& c);

/// Level-skip dominance (paper Sec. IV-F generalized): the optimizer with
/// suffix skipping enabled searches a superset of the plans available
/// without it, so its selected expected time can never be worse. Runs two
/// small-grid searches on the case's system.
CheckResult check_optimizer_dominance(
    const VerifyCase& c, const core::OptimizerOptions& grid = {});

}  // namespace mlck::verify
