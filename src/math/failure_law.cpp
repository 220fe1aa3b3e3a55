#include "math/failure_law.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mlck::math {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

void require_positive_rate(double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument(
        "FailureLaw::primitive: rate must be positive and finite");
  }
}

/// P(a, z) / f, where P is the regularized lower incomplete gamma
/// function and f > 0 the window's failure probability: a series for
/// z < a + 1, a modified-Lentz continued fraction for Q = 1 - P otherwise
/// (Numerical Recipes 6.2). On the series side log f folds into the
/// prefactor z^a e^{-z} / Gamma(a), so a tiny P over a tiny f never
/// underflows on the way.
double lower_gamma_over(double a, double lgamma_a, double z, double f) {
  constexpr double kEps = DBL_EPSILON;
  // Both expansions converge in O(sqrt(a)) terms, and a <= ~145 here
  // (UnitWeibull rejects shapes whose Gamma(a) overflows).
  constexpr int kMaxTerms = 1000;
  const double log_prefactor = a * std::log(z) - z - lgamma_a;
  if (z < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int n = 0; n < kMaxTerms && term > kEps * sum; ++n) {
      ap += 1.0;
      term *= z / ap;
      sum += term;
    }
    return sum * std::exp(log_prefactor - std::log(f));
  }
  // Q = prefactor * CF; once the prefactor underflows (or z overflowed to
  // +inf), Q is 0 and P is 1.
  const double prefactor = std::exp(log_prefactor);
  if (!(prefactor > 0.0)) return 1.0 / f;
  double b = z + 1.0 - a;
  double c = 1.0 / DBL_MIN;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < kMaxTerms; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < DBL_MIN) d = DBL_MIN;
    c = b + an / c;
    if (std::abs(c) < DBL_MIN) c = DBL_MIN;
    d = 1.0 / d;
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) <= kEps) break;
  }
  return (1.0 - prefactor * h) / f;
}

/// Unit-mean Weibull of shape k: z = (x / s)^k with s = 1 / Gamma(1+1/k),
/// F = 1 - e^{-z}, log S = -z exactly, and partial first moment
/// integral_0^x v dF = P(1 + 1/k, z).
struct UnitWeibull {
  explicit UnitWeibull(double k)
      : shape(k),
        a(1.0 + 1.0 / k),
        lgamma_a(std::lgamma(a)),
        inv_scale(std::exp(lgamma_a)) {
    // Gamma(1 + 1/k) overflows for k below ~0.0059: no unit-mean scale.
    if (!(k > 0.0) || !std::isfinite(inv_scale)) {
      throw std::invalid_argument("Weibull: shape and scale must be > 0");
    }
  }

  /// Below k ~ 0.007, Gamma(1+1/k) is large enough that x * inv_scale
  /// overflows on long windows while z itself is finite, so that product
  /// falls back to log form; every finite product keeps the direct pow.
  double z(double x) const noexcept {
    const double y = x * inv_scale;
    if (std::isfinite(y)) return std::pow(y, shape);
    return std::exp(shape * (std::log(x) + lgamma_a));
  }

  double failure_probability(double x) const noexcept {
    return -std::expm1(-z(x));
  }
  double truncated_mean(double x) const noexcept {
    const double zx = z(x);
    const double f = -std::expm1(-zx);
    if (!(f >= DBL_MIN)) return 0.5 * x;
    return std::min(lower_gamma_over(a, lgamma_a, zx, f), x);
  }
  double expected_retries(double x) const noexcept {
    const double zx = z(x);
    if (!(zx >= DBL_MIN)) return 0.0;  // F rounds to z this small
    return std::expm1(zx);  // F / S = e^z - 1; +inf once S underflows
  }
  std::unique_ptr<FailureDistribution> distribution(double mean) const {
    return std::make_unique<Weibull>(Weibull::with_mean(mean, shape));
  }
  std::string name() const {
    std::ostringstream os;
    os << "weibull(shape=" << shape << ")";
    return os.str();
  }

  double shape;
  double a;          ///< 1 + 1/k
  double lgamma_a;   ///< log Gamma(a)
  double inv_scale;  ///< Gamma(a) = 1 / s
};

/// Unit-mean log-normal of log-sd sigma: mu = -sigma^2/2,
/// u = (ln x - mu) / sigma, F = Phi(u), S = Phi(-u), and partial first
/// moment integral_0^x v dF = Phi(u - sigma). Both tails go through erfc.
struct UnitLogNormal {
  explicit UnitLogNormal(double s) : sigma(s) {
    if (!(s > 0.0)) throw std::invalid_argument("LogNormal: sigma must be > 0");
  }

  double u(double x) const noexcept {
    return (std::log(x) + 0.5 * sigma * sigma) / sigma;
  }
  static double phi(double v) noexcept {
    return 0.5 * std::erfc(-v * kInvSqrt2);
  }

  double failure_probability(double x) const noexcept { return phi(u(x)); }
  double truncated_mean(double x) const noexcept {
    // Phi(u - sigma) <= Phi(u): checking the numerator keeps both normal.
    const double ux = u(x);
    const double moment = phi(ux - sigma);
    if (!(moment >= DBL_MIN)) return 0.5 * x;
    return std::min(moment / phi(ux), x);
  }
  double expected_retries(double x) const noexcept {
    const double ux = u(x);
    const double f = phi(ux);
    if (!(f >= DBL_MIN)) return 0.0;
    return f / phi(-ux);  // +inf once S underflows
  }
  std::unique_ptr<FailureDistribution> distribution(double mean) const {
    return std::make_unique<LogNormal>(LogNormal::with_mean(mean, sigma));
  }
  std::string name() const {
    std::ostringstream os;
    os << "lognormal(sigma=" << sigma << ")";
    return os.str();
  }

  double sigma;
};

/// The family member with the given mean, served from the unit-mean law
/// by exact scaling: P(t) = P_u(t / mean), E(t) = mean * E_u(t / mean),
/// retries(t) = r_u(t / mean).
template <typename Unit>
class ScaledPrimitive final : public LawPrimitive {
 public:
  ScaledPrimitive(const Unit& unit, double mean) noexcept
      : unit_(unit), mean_(mean) {}

  double failure_probability(double t) const noexcept override {
    if (t <= 0.0) return 0.0;
    return unit_.failure_probability(t / mean_);
  }
  double truncated_mean(double t) const noexcept override {
    if (t <= 0.0) return 0.0;
    return mean_ * unit_.truncated_mean(t / mean_);
  }
  double expected_retries(double t) const noexcept override {
    if (t <= 0.0) return 0.0;
    return unit_.expected_retries(t / mean_);
  }
  std::string describe() const override {
    std::ostringstream os;
    os << unit_.name() << " at mean " << mean_;
    return os.str();
  }

 private:
  Unit unit_;
  double mean_;
};

/// A scale family: the unit-mean law's shape constants, computed once.
template <typename Unit>
class ScaleFamily final : public FailureLaw {
 public:
  explicit ScaleFamily(double parameter) : unit_(parameter) {}

  std::shared_ptr<const LawPrimitive> primitive(double rate) const override {
    require_positive_rate(rate);
    return std::make_shared<ScaledPrimitive<Unit>>(unit_, 1.0 / rate);
  }

  std::unique_ptr<FailureDistribution> distribution(
      double mean) const override {
    return unit_.distribution(mean);
  }

  std::string describe() const override { return unit_.name(); }

 private:
  Unit unit_;
};

}  // namespace

std::shared_ptr<const FailureLaw> FailureLaw::weibull(double shape) {
  return std::make_shared<ScaleFamily<UnitWeibull>>(shape);
}

std::shared_ptr<const FailureLaw> FailureLaw::lognormal(double sigma) {
  return std::make_shared<ScaleFamily<UnitLogNormal>>(sigma);
}

}  // namespace mlck::math
