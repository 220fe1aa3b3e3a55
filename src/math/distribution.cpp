#include "math/distribution.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "math/exponential.h"

namespace mlck::math {

// ---------------------------------------------------------------- Exponential

Exponential::Exponential(double rate) : rate_(rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("Exponential: rate must be > 0");
  }
}

double Exponential::cdf(double t) const {
  return failure_probability(t, rate_);
}

double Exponential::sample(util::Rng& rng) const {
  return rng.exponential(rate_);
}

std::string Exponential::describe() const {
  std::ostringstream os;
  os << "exponential(mean=" << 1.0 / rate_ << ")";
  return os.str();
}

// -------------------------------------------------------------------- Weibull

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  if (!(shape > 0.0) || !(scale > 0.0)) {
    throw std::invalid_argument("Weibull: shape and scale must be > 0");
  }
}

Weibull Weibull::with_mean(double mean, double shape) {
  if (!(mean > 0.0)) throw std::invalid_argument("Weibull: mean must be > 0");
  const double scale = mean / std::exp(std::lgamma(1.0 + 1.0 / shape));
  return Weibull(shape, scale);
}

double Weibull::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  return -std::expm1(-std::pow(t / scale_, shape_));
}

double Weibull::mean() const {
  return scale_ * std::exp(std::lgamma(1.0 + 1.0 / shape_));
}

double Weibull::sample(util::Rng& rng) const {
  // Inverse CDF: t = scale * (-ln U)^(1/shape).
  return scale_ * std::pow(-std::log(rng.uniform_pos()), 1.0 / shape_);
}

std::string Weibull::describe() const {
  std::ostringstream os;
  os << "weibull(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ------------------------------------------------------------------ LogNormal

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  if (!(sigma > 0.0)) {
    throw std::invalid_argument("LogNormal: sigma must be > 0");
  }
}

LogNormal LogNormal::with_mean(double mean, double sigma) {
  if (!(mean > 0.0)) {
    throw std::invalid_argument("LogNormal: mean must be > 0");
  }
  return LogNormal(std::log(mean) - 0.5 * sigma * sigma, sigma);
}

double LogNormal::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  const double z = (std::log(t) - mu_) / sigma_;
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double LogNormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double LogNormal::sample(util::Rng& rng) const {
  // Box-Muller on the library RNG keeps trials reproducible across
  // platforms (std::normal_distribution is implementation-defined).
  constexpr double kTwoPi = 6.283185307179586;
  const double u1 = rng.uniform_pos();
  const double u2 = rng.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  return std::exp(mu_ + sigma_ * z);
}

std::string LogNormal::describe() const {
  std::ostringstream os;
  os << "lognormal(mu=" << mu_ << ", sigma=" << sigma_ << ")";
  return os.str();
}

}  // namespace mlck::math
