#pragma once

#include <string>
#include <vector>

#include "math/distribution.h"

namespace mlck::math {

/// Production-grade tabulation of one failure law: the adaptive-Simpson
/// machinery that previously lived only in the verify oracle, promoted to
/// a reusable primitive. Build-time quadrature populates a log-spaced grid
/// with the law's log-CDF, log-survival, and log partial first moment
/// M(t) = integral_0^t x dF; queries interpolate with a monotone cubic
/// (Fritsch-Carlson) in log-log space, so every derived quantity the model
/// needs —
///
///   P(t)                (interval failure probability)
///   E(t) = M(t) / P(t)  (truncated mean, paper Eqn. 2 generalized)
///   P / (1 - P)         (the geometric retry factor)
///
/// — is one table lookup instead of one adaptive integral. Storing *logs*
/// keeps the retry factor exp(logF - logS) numerically meaningful at both
/// extremes: tiny windows (P ~ 1e-300) and windows deep past the cap
/// (S underflows and retries saturate to +inf) both behave like the
/// exponential closed forms do.
///
/// Domain policy: the grid spans [1e-4 * mean, cap] at 64 points per
/// decade, where the cap starts at the shared math::kDomainCapMultiple
/// means (the verify oracle's 60/rate rule) and extends until the tail
/// mass drops below 1e-14 (hard stop at 1e9 means) — heavy-tailed Weibull
/// shapes keep real mass past 60 means, so a fixed cap would bias E(t)
/// there. Below the grid the tables extrapolate linearly in log-log (exact
/// for Weibull, conservative otherwise — the probabilities there are
/// negligible either way); above it F and M saturate (E(t) -> mean) and
/// log-survival keeps its end slope.
///
/// Immutable after construction; shared freely across threads.
class TabulatedLaw {
 public:
  /// Tabulates @p law (used during construction only; not retained).
  explicit TabulatedLaw(const FailureDistribution& law);

  double cdf(double t) const noexcept;
  double survival(double t) const noexcept;
  double truncated_mean(double t) const noexcept;
  double expected_retries(double t) const noexcept;

  double mean() const noexcept { return mean_; }
  const std::string& describe() const noexcept { return describe_; }

 private:
  /// Monotone-cubic evaluation of table @p y at log-abscissa @p lx,
  /// linearly extrapolating below the grid and, when @p saturate_above,
  /// clamping to the last knot above it (otherwise extending the end
  /// slope).
  double eval(const std::vector<double>& y, const std::vector<double>& slope,
              double lx, bool saturate_above) const noexcept;

  double mean_ = 0.0;
  std::string describe_;
  std::vector<double> log_x_;   ///< log-spaced abscissae (log x)
  std::vector<double> log_f_;   ///< log CDF, floored at the underflow edge
  std::vector<double> log_s_;   ///< log survival, floored likewise
  std::vector<double> log_m_;   ///< log partial first moment
  std::vector<double> slope_f_, slope_s_, slope_m_;  ///< monotone slopes
};

}  // namespace mlck::math
