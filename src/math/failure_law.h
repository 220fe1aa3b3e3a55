#pragma once

#include <memory>
#include <string>

#include "math/distribution.h"
#include "math/tabulated_law.h"

namespace mlck::math {

/// The failure-law quantities the analytic model consumes for one
/// effective failure process, behind one small interface: the paper
/// derives its recursion (Sec. III-B) "for a chosen probability density
/// function", and every non-exponential term of the model goes through
/// these four calls (the exponential case keeps its closed forms; see
/// FailureLaw).
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
///
/// The exponential law has no family object: it is a null FailureLaw
/// pointer, served by the model's closed-form fast path
/// (math/exponential.h).
class FailureLaw {
 public:
  virtual ~FailureLaw() = default;

  /// The primitive for an effective process with the given @p rate (the
  /// family law with mean 1/rate). Throws std::invalid_argument for
  /// rate <= 0 — callers gate zero-rate levels to the closed-form
  /// conventions instead (expected_retries == 0, truncated_mean == t/2).
  virtual std::shared_ptr<const LawPrimitive> primitive(double rate) const = 0;

  /// The sampling distribution with the given @p mean, for the simulator.
  virtual std::unique_ptr<FailureDistribution> distribution(
      double mean) const = 0;

  /// Family description without a time scale, e.g. "weibull(shape=0.7)".
  virtual std::string describe() const = 0;

  static std::shared_ptr<const FailureLaw> weibull(double shape);
  static std::shared_ptr<const FailureLaw> lognormal(double sigma);
};

}  // namespace mlck::math
