#include "math/failure_law.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace mlck::math {

namespace {

void require_positive_rate(double rate) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument(
        "FailureLaw::primitive: rate must be positive and finite");
  }
}

/// Scaled view of a shared unit-mean table: the law of s * T for the
/// tabulated T, i.e. the family member with mean s. Exact scaling
/// relations, no re-tabulation:
///   P(t) = P_u(t / s),  E(t) = s * E_u(t / s),  retries(t) = r_u(t / s).
class ScaledTabulatedPrimitive final : public LawPrimitive {
 public:
  ScaledTabulatedPrimitive(std::shared_ptr<const TabulatedLaw> unit,
                           double scale) noexcept
      : unit_(std::move(unit)), scale_(scale) {}

  double failure_probability(double t) const noexcept override {
    return unit_->cdf(t / scale_);
  }
  double survival(double t) const noexcept override {
    return unit_->survival(t / scale_);
  }
  double truncated_mean(double t) const noexcept override {
    return scale_ * unit_->truncated_mean(t / scale_);
  }
  double expected_retries(double t) const noexcept override {
    return unit_->expected_retries(t / scale_);
  }
  std::string describe() const override {
    std::ostringstream os;
    os << unit_->describe() << " scaled to mean " << scale_ * unit_->mean();
    return os.str();
  }

 private:
  std::shared_ptr<const TabulatedLaw> unit_;
  double scale_;
};

class WeibullLaw final : public FailureLaw {
 public:
  explicit WeibullLaw(double shape)
      : shape_(shape),
        unit_(std::make_shared<TabulatedLaw>(Weibull::with_mean(1.0, shape))) {
  }

  std::shared_ptr<const LawPrimitive> primitive(double rate) const override {
    require_positive_rate(rate);
    return std::make_shared<ScaledTabulatedPrimitive>(unit_, 1.0 / rate);
  }

  std::unique_ptr<FailureDistribution> distribution(
      double mean) const override {
    return std::make_unique<Weibull>(Weibull::with_mean(mean, shape_));
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "weibull(shape=" << shape_ << ")";
    return os.str();
  }

 private:
  double shape_;
  std::shared_ptr<const TabulatedLaw> unit_;
};

class LogNormalLaw final : public FailureLaw {
 public:
  explicit LogNormalLaw(double sigma)
      : sigma_(sigma),
        unit_(std::make_shared<TabulatedLaw>(
            LogNormal::with_mean(1.0, sigma))) {}

  std::shared_ptr<const LawPrimitive> primitive(double rate) const override {
    require_positive_rate(rate);
    return std::make_shared<ScaledTabulatedPrimitive>(unit_, 1.0 / rate);
  }

  std::unique_ptr<FailureDistribution> distribution(
      double mean) const override {
    return std::make_unique<LogNormal>(LogNormal::with_mean(mean, sigma_));
  }

  std::string describe() const override {
    std::ostringstream os;
    os << "lognormal(sigma=" << sigma_ << ")";
    return os.str();
  }

 private:
  double sigma_;
  std::shared_ptr<const TabulatedLaw> unit_;
};

}  // namespace

std::shared_ptr<const FailureLaw> FailureLaw::weibull(double shape) {
  return std::make_shared<WeibullLaw>(shape);
}

std::shared_ptr<const FailureLaw> FailureLaw::lognormal(double sigma) {
  return std::make_shared<LogNormalLaw>(sigma);
}

}  // namespace mlck::math
