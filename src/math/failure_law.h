#pragma once

#include <memory>
#include <string>

#include "math/distribution.h"
#include "math/tabulated_law.h"

namespace mlck::math {

/// The failure-law quantities the analytic model consumes for one
/// effective failure process, behind one small interface: the paper
/// derives its recursion (Sec. III-B) "for a chosen probability density
/// function", and every place the model previously inlined exponential
/// math now goes through these four calls.
///
///   failure_probability(t)  P(t)       — paper Eqn. 1 generalized
///   truncated_mean(t)       E(t)       — paper Eqn. 2 generalized
///   expected_retries(t)     P/(1 - P)  — the geometric retry factor of
///                                        Eqns. 5/8/12
///
/// Implementations are immutable after construction and safe to share
/// across threads.
class LawPrimitive {
 public:
  virtual ~LawPrimitive() = default;

  virtual double failure_probability(double t) const noexcept = 0;
  virtual double survival(double t) const noexcept = 0;
  virtual double truncated_mean(double t) const noexcept = 0;
  virtual double expected_retries(double t) const noexcept = 0;
  virtual std::string describe() const = 0;
};

/// Closed-form exponential primitive (the paper's assumption): thin
/// virtual shims over math/exponential.h and math/retry.h, bit-identical
/// to calling those free functions directly.
class ExponentialPrimitive final : public LawPrimitive {
 public:
  explicit ExponentialPrimitive(double rate) noexcept : rate_(rate) {}

  double failure_probability(double t) const noexcept override;
  double survival(double t) const noexcept override;
  double truncated_mean(double t) const noexcept override;
  double expected_retries(double t) const noexcept override;
  std::string describe() const override;

  double rate() const noexcept { return rate_; }

 private:
  double rate_;
};

/// A failure-law *family*: the shape of the law with the time scale left
/// free. The model asks the family for a primitive per effective rate
/// (severity-binned lambda_k, cumulative lambda_c, scratch lambda), each
/// meaning "this family scaled to mean 1/rate"; the simulator asks it for
/// a sampling distribution with a concrete mean. Both sides of a scenario
/// therefore share one declaration of the law.
///
/// Weibull (fixed shape) and log-normal (fixed sigma) are closed under
/// time scaling, so each family instance tabulates ONE unit-mean
/// TabulatedLaw at construction and serves every rate through scaled
/// views — primitive() is cheap and allocation-light however many rates a
/// kernel build requests.
class FailureLaw {
 public:
  enum class Kind { kExponential, kWeibull, kLogNormal };

  virtual ~FailureLaw() = default;

  virtual Kind kind() const noexcept = 0;

  /// The primitive for an effective process with the given @p rate (the
  /// family law with mean 1/rate). Throws std::invalid_argument for
  /// rate <= 0 — callers gate zero-rate levels to the closed-form
  /// conventions instead (expected_retries == 0, truncated_mean == t/2).
  virtual std::shared_ptr<const LawPrimitive> primitive(double rate) const = 0;

  /// The sampling distribution with the given @p mean, for the simulator.
  virtual std::unique_ptr<FailureDistribution> distribution(
      double mean) const = 0;

  /// The *fast* sampling distribution with the given @p mean: draws
  /// through the family's shared unit-mean inverse-CDF table (one uniform
  /// per draw, O(1), no per-draw transcendentals) where the family has
  /// one, falling back to distribution() where the closed form is already
  /// a single cheap uniform (exponential). Sampled values agree with
  /// distribution() in law to table accuracy but are NOT the same stream
  /// of bits — LogNormal's Box-Muller sampler even consumes a different
  /// number of uniforms — so validation paths that pin seeded results
  /// keep using distribution(); throughput-bound callers opt in here.
  virtual std::unique_ptr<FailureDistribution> sampling_distribution(
      double mean) const {
    return distribution(mean);
  }

  /// Family description without a time scale, e.g. "weibull(shape=0.7)".
  virtual std::string describe() const = 0;

  static std::shared_ptr<const FailureLaw> exponential();
  static std::shared_ptr<const FailureLaw> weibull(double shape);
  static std::shared_ptr<const FailureLaw> lognormal(double sigma);
};

/// True when @p law is absent or the exponential family — the cases the
/// model serves through its bit-identical closed-form fast path.
inline bool is_exponential_family(const FailureLaw* law) noexcept {
  return law == nullptr || law->kind() == FailureLaw::Kind::kExponential;
}

}  // namespace mlck::math
