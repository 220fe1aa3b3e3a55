#pragma once

#include <memory>
#include <string>

#include "util/rng.h"

namespace mlck::math {

/// A failure inter-arrival law. The paper's model (Sec. III-B) is derived
/// "for a chosen probability density function" but evaluated only for the
/// exponential; the library keeps that generality so the simulator can
/// stress the exponential modeling assumption against heavier- or
/// lighter-tailed reality (Weibull shape < 1 is the empirically reported
/// regime for HPC failures).
///
/// All times in minutes. Implementations must be immutable after
/// construction (shared freely across threads).
class FailureDistribution {
 public:
  virtual ~FailureDistribution() = default;

  /// P(T <= t).
  virtual double cdf(double t) const = 0;

  /// E[T].
  virtual double mean() const = 0;

  /// Draws one inter-arrival sample.
  virtual double sample(util::Rng& rng) const = 0;

  /// Human-readable description, e.g. "weibull(shape=0.7, scale=12.3)".
  virtual std::string describe() const = 0;
};

/// Exponential law with the given rate (the paper's assumption).
/// Memoryless: a renewal process of these inter-arrivals is Poisson, so
/// this reproduces RandomFailureSource exactly in distribution.
class Exponential final : public FailureDistribution {
 public:
  explicit Exponential(double rate);

  double cdf(double t) const override;
  double mean() const override { return 1.0 / rate_; }
  double sample(util::Rng& rng) const override;
  std::string describe() const override;

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// Weibull law, F(t) = 1 - exp(-(t/scale)^shape). Shape < 1 gives the
/// heavy-tailed, burst-prone behaviour reported for production HPC
/// failure logs; shape = 1 degenerates to the exponential.
class Weibull final : public FailureDistribution {
 public:
  Weibull(double shape, double scale);

  /// Weibull with the given mean: scale = mean / Gamma(1 + 1/shape).
  static Weibull with_mean(double mean, double shape);

  double cdf(double t) const override;
  double mean() const override;
  double sample(util::Rng& rng) const override;
  std::string describe() const override;

  double shape() const noexcept { return shape_; }
  double scale() const noexcept { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// Log-normal law: log T ~ N(mu, sigma^2). Right-skewed with a light
/// left tail — failures rarely arrive immediately after a repair.
class LogNormal final : public FailureDistribution {
 public:
  LogNormal(double mu, double sigma);

  /// Log-normal with the given mean and sigma:
  /// mu = log(mean) - sigma^2/2.
  static LogNormal with_mean(double mean, double sigma);

  double cdf(double t) const override;
  double mean() const override;
  double sample(util::Rng& rng) const override;
  std::string describe() const override;

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

}  // namespace mlck::math
