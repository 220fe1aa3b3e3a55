#include "verify/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "verify/integrate.h"

namespace mlck::verify {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Quadrature tolerances are absolute, so they must scale with the
/// integral's magnitude: P(t, X) ~ min(1, Xt) for small windows.
double probability_scale(double u) noexcept { return std::min(1.0, u); }

/// Integral of @p f over [a, b] split at every landmark inside (a, b).
template <typename F>
double integrate_marked(const F& f, double a, double b, double tol,
                        std::initializer_list<double> marks) {
  if (!(b > a)) return 0.0;
  double total = 0.0;
  double lo = a;
  for (const double m : marks) {  // marks must be ascending
    if (m <= lo || m >= b) continue;
    total += integrate(f, lo, m, tol);
    lo = m;
  }
  total += integrate(f, lo, b, tol);
  return total;
}

// ---- Weibull via the u = (x / lambda)^shape substitution ----
//
// With u substituted, the density becomes the *unit exponential* e^{-u}:
//   P(t)            = integral_0^{u_t} e^{-u} du,  u_t = (t / lambda)^shape
//   int_0^t x f dx  = lambda * integral_0^{u_t} u^{1/shape} e^{-u} du
// with lambda = mean / Gamma(a), a = 1 + 1/shape. The unit-mean domain
// policy (integration_domain with mean 1) fits P, but the first-moment
// integrand is Gamma(a) times the Gamma(a) density, whose mass sits near
// its mean a (u = 50 at shape 0.02), with spread sqrt(a). So that density
// is integrated in log form, split at its mean +-8 spreads and capped 60
// spreads past it. Nothing here touches the closed forms in src/math.

/// u_t = (t / lambda)^shape, in log form so t / lambda never overflows.
double weibull_u(double t, double rate, double shape) {
  return std::exp(shape *
                  (std::log(t * rate) + std::lgamma(1.0 + 1.0 / shape)));
}

double weibull_p(double t, double rate, double shape) {
  if (t <= 0.0 || rate <= 0.0) return 0.0;
  const double u_t = weibull_u(t, rate, shape);
  const auto density = [](double u) { return std::exp(-u); };
  const double b = integration_domain(u_t, 1.0).cap;
  const double tol = std::max(1e-300, 1e-13 * probability_scale(u_t));
  return std::min(1.0, integrate(density, 0.0, b, tol));
}

double weibull_s(double t, double rate, double shape) {
  if (t <= 0.0 || rate <= 0.0) return 1.0;
  const double u_t = weibull_u(t, rate, shape);
  if (u_t >= 745.0) return 0.0;  // e^{-u_t} underflows double
  const auto density = [](double u) { return std::exp(-u); };
  const double tol = std::max(1e-300, 1e-13 * std::exp(-u_t));
  return integrate(density, u_t, u_t + 60.0, tol);
}

double weibull_tmean(double t, double rate, double shape) {
  if (t <= 0.0) return 0.0;
  if (rate <= 0.0) return 0.5 * t;
  const double p = weibull_p(t, rate, shape);
  if (p <= 0.0) return 0.5 * t;
  const double u_t = weibull_u(t, rate, shape);
  const double a = 1.0 + 1.0 / shape;
  // Written around the mode m = a - 1: the plain exponent
  // (a - 1) ln u - u - ln Gamma(a) cancels terms near a ln a, leaving
  // ~1e-13 relative noise at small shapes, above the tolerance.
  const double mode = a - 1.0;
  const double log_peak = mode * std::log(mode) - mode - std::lgamma(a);
  const auto gamma_density = [mode, log_peak](double u) {
    const double y = (u - mode) / mode;
    const double log_ratio =
        std::abs(y) < 0.5 ? std::log1p(y) : std::log(u / mode);
    return std::exp(log_peak + mode * (log_ratio - y));
  };
  const double spread = std::sqrt(a);
  const double b = std::min(u_t, a + 60.0 * spread);
  // A lower bound on the mass below b scales the tolerance (past the mean
  // it is 1/2: the Gamma median lies below its mean).
  const double scale =
      b < a ? std::exp(a * std::log(b) - b - std::lgamma(a + 1.0)) : 0.5;
  const double tol = std::max(1e-300, 0.5e-13 * scale);
  const double mass = integrate_marked(gamma_density, 0.0, b, tol,
                                       {a - 8.0 * spread, a, a + 8.0 * spread});
  return mass / (rate * p);  // lambda * Gamma(a) = 1 / rate
}

// ---- Log-normal via the z = (ln x - mu) / sigma substitution ----
//
// With z substituted the density becomes the standard normal phi(z), and
// the partial first moment integrand e^{mu + sigma z} phi(z) — a shifted
// Gaussian bump peaked at z = sigma. |z| beyond ~38 underflows phi, so
// the window [-40, 40] (shifted by sigma for the moment) loses nothing
// representable. Landmarks at the peak and +-8 sigmas keep the adaptive
// subdivision from terminating on an apparent-zero first estimate when
// the bump hides between the initial Simpson samples.

constexpr double kZLimit = 40.0;
constexpr double kSqrt2 = 1.4142135623730951;

double phi(double z) {
  constexpr double kSqrt2Pi = 2.5066282746310002;
  return std::exp(-0.5 * z * z) / kSqrt2Pi;
}

double lognormal_mu_for(double rate, double sigma) {
  return std::log(1.0 / rate) - 0.5 * sigma * sigma;
}

double lognormal_p(double t, double rate, double sigma) {
  if (t <= 0.0 || rate <= 0.0) return 0.0;
  const double z_t = (std::log(t) - lognormal_mu_for(rate, sigma)) / sigma;
  // Deeper than z = -8 the window mass (< 1e-15) is beneath anything the
  // recursion can resolve — every use multiplies it into a same-order
  // retry factor — while the tolerance needed to resolve it from
  // quadrature explodes the subdivision (tens of seconds per call).
  // Treat it like underflowed exponential survival: exactly zero, which
  // also routes lognormal_tmean to its t/2 convention.
  if (z_t <= -8.0) return 0.0;
  const double zc = std::min(z_t, kZLimit);
  // The closed-form erfc scales the *tolerance* only; the value still
  // comes from quadrature.
  const double scale = 0.5 * std::erfc(-zc / kSqrt2);
  const double tol = std::max(1e-300, 1e-13 * scale);
  return std::min(
      1.0, integrate_marked(phi, -kZLimit, zc, tol, {-8.0, 0.0, 8.0}));
}

double lognormal_s(double t, double rate, double sigma) {
  if (t <= 0.0 || rate <= 0.0) return 1.0;
  const double z_t = (std::log(t) - lognormal_mu_for(rate, sigma)) / sigma;
  if (z_t >= kZLimit) return 0.0;
  const double za = std::max(z_t, -kZLimit);
  const double scale = 0.5 * std::erfc(z_t / kSqrt2);
  const double tol = std::max(1e-300, 1e-13 * scale);
  return std::min(
      1.0, integrate_marked(phi, za, kZLimit, tol, {-8.0, 0.0, 8.0}));
}

double lognormal_tmean(double t, double rate, double sigma) {
  if (t <= 0.0) return 0.0;
  if (rate <= 0.0) return 0.5 * t;
  const double p = lognormal_p(t, rate, sigma);
  if (p <= 0.0) return 0.5 * t;
  const double mu = lognormal_mu_for(rate, sigma);
  const double z_t = (std::log(t) - mu) / sigma;
  const auto weighted = [mu, sigma](double z) {
    return std::exp(mu + sigma * z) * phi(z);
  };
  const double lo = sigma - kZLimit;
  const double zc = std::min(z_t, sigma + kZLimit);
  const double scale = std::exp(mu + 0.5 * sigma * sigma) *  // the mean
                       0.5 * std::erfc(-(zc - sigma) / kSqrt2);
  const double tol = std::max(1e-300, 0.5e-13 * scale);
  const double mass = integrate_marked(
      weighted, lo, zc, tol, {sigma - 8.0, sigma, sigma + 8.0});
  return mass / p;
}

}  // namespace

double TolerancePolicy::effective_rel(double condition) const noexcept {
  return std::min(rel_cap, rel * std::max(1.0, condition));
}

bool TolerancePolicy::within(double value, double reference,
                             double condition) const noexcept {
  if (std::isnan(value) || std::isnan(reference)) return false;
  if (std::isinf(value) || std::isinf(reference)) return value == reference;
  const double band =
      abs + effective_rel(condition) *
                std::max(std::abs(value), std::abs(reference));
  return std::abs(value - reference) <= band;
}

double oracle_failure_probability(double t, double rate) {
  if (t <= 0.0 || rate <= 0.0) return 0.0;
  const auto density = [rate](double x) { return rate * std::exp(-rate * x); };
  const double tol = 1e-13 * probability_scale(rate * t);
  // Beyond the shared cap (integration_domain, 60 means) the
  // remaining mass is ~e^{-60}, far below the tolerance; capping there
  // keeps the decay scale a visible fraction of the integration interval
  // however large t grows.
  const double b = integration_domain(t, 1.0 / rate).cap;
  return std::min(1.0, integrate(density, 0.0, b, tol));
}

double oracle_survival(double t, double rate) {
  if (t <= 0.0 || rate <= 0.0) return 1.0;
  const double u = rate * t;
  if (u >= 745.0) return 0.0;  // e^{-u} underflows double
  const auto density = [rate](double x) { return rate * std::exp(-rate * x); };
  // The tail integral's magnitude is e^{-u}; use that only to *scale the
  // tolerance* (the value itself still comes from quadrature).
  const double scale = std::exp(-u);
  const double tol = std::max(1e-300, 1e-13 * scale);
  return integrate(density, t, t + 60.0 / rate, tol);
}

double oracle_truncated_mean(double t, double rate) {
  if (t <= 0.0) return 0.0;
  if (rate <= 0.0) return 0.5 * t;  // uniform limit, as in math/exponential
  const double p = oracle_failure_probability(t, rate);
  if (p <= 0.0) return 0.5 * t;
  const auto weighted = [rate](double x) {
    return x * rate * std::exp(-rate * x);
  };
  // The integrand peaks at x = 1/rate and f(0) = f(inf) = 0, so on a long
  // interval the whole mass can hide between the first Simpson samples
  // and the subdivision would terminate on an apparent-zero estimate.
  // The shared domain policy (integration_domain) caps the domain
  // at the effective support (mass beyond 60 means is ~e^{-60}) and
  // splits bulk from tail so the peak always sits within a factor of 8 of
  // an integration endpoint.
  const IntegrationDomain dom = integration_domain(t, 1.0 / rate);
  const double tol =
      0.5e-13 * probability_scale(rate * t) * std::min(t, 1.0 / rate);
  double mass = integrate(weighted, 0.0, dom.split, tol);
  if (dom.cap > dom.split) {
    mass += integrate(weighted, dom.split, dom.cap, tol);
  }
  return mass / p;
}

double oracle_expected_retries(double t, double rate) {
  if (t <= 0.0 || rate <= 0.0) return 0.0;
  const double s = oracle_survival(t, rate);
  if (s <= 0.0) return kInf;
  return oracle_failure_probability(t, rate) / s;
}

double oracle_failure_probability(double t, double rate,
                                  const OracleLaw& law) {
  switch (law.kind) {
    case OracleLaw::Kind::kExponential:
      return oracle_failure_probability(t, rate);
    case OracleLaw::Kind::kWeibull: return weibull_p(t, rate, law.shape);
    case OracleLaw::Kind::kLogNormal: return lognormal_p(t, rate, law.sigma);
  }
  return oracle_failure_probability(t, rate);
}

double oracle_survival(double t, double rate, const OracleLaw& law) {
  switch (law.kind) {
    case OracleLaw::Kind::kExponential: return oracle_survival(t, rate);
    case OracleLaw::Kind::kWeibull: return weibull_s(t, rate, law.shape);
    case OracleLaw::Kind::kLogNormal: return lognormal_s(t, rate, law.sigma);
  }
  return oracle_survival(t, rate);
}

double oracle_truncated_mean(double t, double rate, const OracleLaw& law) {
  switch (law.kind) {
    case OracleLaw::Kind::kExponential:
      return oracle_truncated_mean(t, rate);
    case OracleLaw::Kind::kWeibull: return weibull_tmean(t, rate, law.shape);
    case OracleLaw::Kind::kLogNormal:
      return lognormal_tmean(t, rate, law.sigma);
  }
  return oracle_truncated_mean(t, rate);
}

double oracle_expected_retries(double t, double rate, const OracleLaw& law) {
  if (law.kind == OracleLaw::Kind::kExponential) {
    return oracle_expected_retries(t, rate);
  }
  if (t <= 0.0 || rate <= 0.0) return 0.0;
  const double s = oracle_survival(t, rate, law);
  if (s <= 0.0) return kInf;
  return oracle_failure_probability(t, rate, law) / s;
}

double oracle_expected_time(const systems::SystemConfig& system,
                            const core::CheckpointPlan& plan,
                            const core::DauweOptions& options,
                            double* condition) {
  return oracle_expected_time(system, plan, options, condition, OracleLaw{});
}

double oracle_expected_time(const systems::SystemConfig& system,
                            const core::CheckpointPlan& plan,
                            const core::DauweOptions& options,
                            double* condition, const OracleLaw& law) {
  plan.validate(system);
  if (condition != nullptr) *condition = 1.0;
  const int K = plan.used_levels();

  // Independent severity binning: a severity-s failure restarts from the
  // lowest used level >= s; severities above the top used level restart
  // the application from scratch (paper Sec. III-B).
  std::vector<double> lambda(static_cast<std::size_t>(K), 0.0);
  double scratch_lambda = 0.0;
  for (int s = 0; s < system.levels(); ++s) {
    bool binned = false;
    for (int k = 0; k < K; ++k) {
      if (plan.levels[static_cast<std::size_t>(k)] >= s) {
        lambda[static_cast<std::size_t>(k)] += system.lambda(s);
        binned = true;
        break;
      }
    }
    if (!binned) scratch_lambda += system.lambda(s);
  }
  const double lambda_total = system.lambda_total();

  // The Eqns. 4-14 recursion, one stage per used level, every
  // transcendental from quadrature.
  std::vector<double> tau(static_cast<std::size_t>(K));
  std::vector<double> gamma(static_cast<std::size_t>(K));
  std::vector<double> lost_share(static_cast<std::size_t>(K));
  tau[0] = plan.tau0;
  double pattern = 1.0;
  for (std::size_t k = 0; k + 1 < static_cast<std::size_t>(K); ++k) {
    pattern *= static_cast<double>(plan.counts[k] + 1);
  }
  const double top_periods = system.base_time / (plan.tau0 * pattern);
  if (!(top_periods >= 1.0)) return kInf;  // Eqn. 3 solution-space bound

  double amplification = 1.0;
  double lambda_c = 0.0;
  double total = kInf;
  for (int k = 0; k < K; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    if (!std::isfinite(tau[ki])) return kInf;  // a stage overflowed
    lambda_c += lambda[ki];
    gamma[ki] = oracle_expected_retries(tau[ki], lambda[ki], law);  // Eqn. 5
    const double e_tau = oracle_truncated_mean(tau[ki], lambda[ki], law);
    lost_share[ki] = tau[ki] + gamma[ki] * e_tau;
    amplification *= std::max(1.0, lambda[ki] * tau[ki]);

    double m, c;
    if (k + 1 < K) {
      m = static_cast<double>(plan.counts[ki] + 1);
      c = static_cast<double>(plan.counts[ki]);
    } else {
      // Top level: N_L periods, one fewer checkpoint (Eqn. 3 convention).
      m = top_periods;
      c = top_periods - 1.0;
    }
    const auto level = static_cast<std::size_t>(plan.levels[ki]);
    const double delta = system.checkpoint_cost[level];
    const double restart = system.restart_cost[level];
    const auto share = [&](std::size_t j) {
      return options.renormalize_severity_shares ? lambda[j] / lambda_c
                                                 : lambda[j] / lambda_total;
    };

    const double t_ck_ok = c * delta;  // Eqn. 7
    const double alpha =               // Eqn. 8
        options.checkpoint_failures
            ? c * oracle_expected_retries(delta, lambda_c, law)
            : 0.0;
    const double t_ck_fail =
        alpha * oracle_truncated_mean(delta, lambda_c, law);
    double lost = 0.0;  // Eqn. 10
    for (std::size_t j = 0; j <= ki; ++j) lost += lost_share[j] * share(j);
    const double t_w_ck = alpha * lost;
    const double t_w_tau = m * gamma[ki] * e_tau;  // Eqn. 6
    const double beta =                            // Eqn. 11
        share(ki) * alpha + gamma[ki] * (share(ki) * alpha + m);
    const double t_r_ok = beta * restart;
    const double zeta =  // Eqn. 12
        options.restart_failures
            ? beta * oracle_expected_retries(restart, lambda_c, law)
            : 0.0;
    const double t_r_fail =
        zeta * oracle_truncated_mean(restart, lambda_c, law);

    const double out =  // Eqn. 4
        m * tau[ki] + t_ck_ok + t_ck_fail + t_r_ok + t_r_fail + t_w_tau +
        t_w_ck;
    if (k + 1 < K) {
      tau[ki + 1] = out;
    } else {
      total = out;
    }
  }
  if (!std::isfinite(total)) return kInf;

  // Restart-from-scratch wrap for unrecoverable severities.
  if (scratch_lambda > 0.0) {
    total += oracle_expected_retries(total, scratch_lambda, law) *
             oracle_truncated_mean(total, scratch_lambda, law);
    amplification *= std::max(1.0, scratch_lambda * total);
  }
  if (!std::isfinite(total)) return kInf;
  if (condition != nullptr) *condition = amplification;
  return total;
}

}  // namespace mlck::verify
