#pragma once

#include "core/dauwe_model.h"
#include "core/plan.h"
#include "systems/system_config.h"

namespace mlck::verify {

/// Acceptance band for oracle-vs-implementation comparisons.
///
/// The quadrature primitives are accurate to ~1e-11 relative, but the
/// Eqns. 4-14 recursion *amplifies* input error: a relative perturbation
/// of tau_k moves gamma_k = e^{lambda tau_k} - 1 by a factor of roughly
/// max(1, lambda tau_k), and stages chain. The oracle therefore reports a
/// condition estimate (the product of those per-stage factors) and the
/// policy widens its relative band by it, up to `rel_cap`. Beyond the cap
/// the comparison still catches structural bugs (wrong term, wrong sign,
/// wrong binning) — just not last-digit ones.
struct TolerancePolicy {
  double rel = 1e-9;      ///< relative band for condition == 1
  double abs = 1e-9;      ///< absolute floor (minutes)
  double rel_cap = 1e-2;  ///< widest allowed relative band

  /// The relative band after widening by @p condition (>= 1).
  double effective_rel(double condition) const noexcept;

  /// True when @p value agrees with @p reference within the band. Two
  /// non-finite values agree iff they are the same infinity; NaN never
  /// agrees with anything.
  bool within(double value, double reference,
              double condition = 1.0) const noexcept;
};

/// Numeric-quadrature oracle for the model's transcendental primitives.
///
/// Every function below evaluates its quantity from the *definition* — an
/// adaptive-Simpson integral of the exponential failure density
/// lambda e^{-lambda x} — rather than from the closed forms in src/math
/// (expm1 rearrangements, series limits). The two derivations share no
/// code beyond libm, so agreement pins down both implementations.

/// P(t, X) of paper Eqn. 1: integral of the density over [0, t].
double oracle_failure_probability(double t, double rate);

/// e^{-Xt} via the tail integral over [t, t + 60/X]; the truncation error
/// is ~e^{-60} relative. Returns exactly 0 once the value underflows.
double oracle_survival(double t, double rate);

/// E(t, X) of paper Eqn. 2 as the conditional-mean quotient
/// (integral of x * density over [0, t]) / P(t, X).
double oracle_truncated_mean(double t, double rate);

/// Expected failed attempts before one success: the geometric mean
/// P / (1 - P) with both terms from quadrature.
double oracle_expected_retries(double t, double rate);

/// Failure-law selector for the law-aware oracle overloads below. `rate`
/// keeps the meaning it has throughout the model layer: the law is the
/// matching family member with mean 1 / rate (math::FailureLaw). The
/// non-exponential oracles integrate *substituted* densities — Weibull
/// through u = (x / lambda)^shape, log-normal through the standard-normal
/// z — so they share no closed forms with src/math (the incomplete gamma
/// function, Phi through erfc) beyond libm, which is what makes the
/// agreement checks meaningful.
struct OracleLaw {
  enum class Kind { kExponential, kWeibull, kLogNormal };
  Kind kind = Kind::kExponential;
  double shape = 1.0;  ///< Weibull shape (ignored otherwise)
  double sigma = 1.0;  ///< LogNormal sigma (ignored otherwise)
};

/// Law-aware quadrature primitives; with an exponential @p law each
/// forwards to the function of the same name above (numerically
/// identical, not merely close).
double oracle_failure_probability(double t, double rate,
                                  const OracleLaw& law);
double oracle_survival(double t, double rate, const OracleLaw& law);
double oracle_truncated_mean(double t, double rate, const OracleLaw& law);
double oracle_expected_retries(double t, double rate, const OracleLaw& law);

/// Independent evaluation of the full Dauwe recursion (Eqns. 4-14
/// including the restart-from-scratch wrap) for one plan, built on the
/// quadrature primitives with its own severity binning and naive
/// per-stage accumulation. Returns +inf for infeasible plans, exactly as
/// the production paths do.
///
/// When @p condition is non-null it receives the error-amplification
/// estimate described on TolerancePolicy (>= 1; meaningful only for
/// finite results).
double oracle_expected_time(const systems::SystemConfig& system,
                            const core::CheckpointPlan& plan,
                            const core::DauweOptions& options = {},
                            double* condition = nullptr);

/// Law-aware recursion: every per-level rate is interpreted through
/// @p law's family, matching DauweModel with the corresponding
/// math::FailureLaw. The exponential @p law runs the exact code path of
/// the overload above.
double oracle_expected_time(const systems::SystemConfig& system,
                            const core::CheckpointPlan& plan,
                            const core::DauweOptions& options,
                            double* condition, const OracleLaw& law);

}  // namespace mlck::verify
