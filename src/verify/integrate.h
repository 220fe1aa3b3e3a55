#pragma once

#include <functional>

namespace mlck::verify {

/// Adaptive Simpson quadrature of @p f over [a, b] to absolute tolerance
/// @p tol. Deterministic; recursion depth capped (the result of the last
/// refinement is returned if the cap is hit).
///
/// The quadrature behind the verify oracle (oracle.h), which evaluates
/// every failure-law quantity from its defining integral so that it
/// shares no closed forms with src/math. The integrands are smooth
/// densities, so convergence is fast.
double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol = 1e-10);

/// The quadrature domain policy for the oracle's failure-law integrands.
///
/// Failure densities peak near the mean and adaptive Simpson terminates on
/// an apparent-zero estimate when the whole mass hides between the first
/// samples of a long interval. The policy therefore (a) caps the domain at
/// kDomainCapMultiple means — beyond which the exponential's remaining
/// mass is ~e^{-60}, far below every quadrature tolerance in the tree —
/// and (b) splits bulk from tail at kBulkSplitMultiple means so the peak
/// always sits within a small factor of an integration endpoint.
inline constexpr double kDomainCapMultiple = 60.0;
inline constexpr double kBulkSplitMultiple = 8.0;

struct IntegrationDomain {
  double cap = 0.0;    ///< upper integration limit: min(t, 60 * mean)
  double split = 0.0;  ///< bulk/tail boundary: min(cap, 8 * mean)
};

/// The capped, split integration domain for a window of length @p t over a
/// law with the given @p mean (<= 0 degenerates to {t, t}: no cap).
IntegrationDomain integration_domain(double t, double mean) noexcept;

}  // namespace mlck::verify
