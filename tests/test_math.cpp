#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <tuple>

#include "math/exponential.h"
#include "math/retry.h"

namespace mlck::math {
namespace {

TEST(FailureProbability, ZeroForNonPositiveInputs) {
  EXPECT_EQ(failure_probability(0.0, 1.0), 0.0);
  EXPECT_EQ(failure_probability(-1.0, 1.0), 0.0);
  EXPECT_EQ(failure_probability(1.0, 0.0), 0.0);
  EXPECT_EQ(failure_probability(1.0, -2.0), 0.0);
}

TEST(FailureProbability, MatchesClosedForm) {
  EXPECT_NEAR(failure_probability(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-15);
  EXPECT_NEAR(failure_probability(2.5, 0.4), 1.0 - std::exp(-1.0), 1e-15);
  EXPECT_NEAR(failure_probability(10.0, 3.0), 1.0 - std::exp(-30.0), 1e-15);
}

TEST(FailureProbability, PreciseForTinyRates) {
  // 1 - e^{-u} ~= u for tiny u; the naive 1.0 - exp(-u) would round to 0.
  const double p = failure_probability(1.0, 1e-18);
  EXPECT_NEAR(p, 1e-18, 1e-33);
  EXPECT_GT(p, 0.0);
}

TEST(FailureProbability, MonotoneInDurationAndRate) {
  double prev = 0.0;
  for (double t = 0.1; t < 50.0; t *= 1.7) {
    const double p = failure_probability(t, 0.3);
    EXPECT_GT(p, prev);
    prev = p;
  }
  prev = 0.0;
  for (double rate = 1e-3; rate < 10.0; rate *= 2.0) {
    const double p = failure_probability(2.0, rate);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Survival, ComplementsFailureProbability) {
  for (double t : {0.01, 0.5, 3.0, 40.0}) {
    for (double rate : {1e-4, 0.1, 2.0}) {
      EXPECT_NEAR(survival(t, rate) + failure_probability(t, rate), 1.0,
                  1e-12);
    }
  }
}

/// Numeric-integration oracle for the truncated-exponential mean:
/// integral of x f(x) over [0,t] divided by P(t).
double truncated_mean_oracle(double t, double rate) {
  const int n = 400000;
  const double h = t / n;
  double num = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = (i + 0.5) * h;
    num += x * rate * std::exp(-rate * x) * h;
  }
  return num / (1.0 - std::exp(-rate * t));
}

TEST(TruncatedMean, MatchesNumericIntegration) {
  for (double t : {0.5, 2.0, 10.0}) {
    for (double rate : {0.05, 0.5, 2.0}) {
      EXPECT_NEAR(truncated_mean(t, rate), truncated_mean_oracle(t, rate),
                  1e-6)
          << "t=" << t << " rate=" << rate;
    }
  }
}

TEST(TruncatedMean, UniformLimitForVanishingRate) {
  EXPECT_NEAR(truncated_mean(8.0, 0.0), 4.0, 1e-12);
  EXPECT_NEAR(truncated_mean(8.0, 1e-12), 4.0, 1e-6);
}

TEST(TruncatedMean, ApproachesFullMeanForLongWindows) {
  // As t -> inf the truncation becomes irrelevant: E -> 1/X.
  EXPECT_NEAR(truncated_mean(1e6, 0.5), 2.0, 1e-9);
}

TEST(TruncatedMean, AlwaysBelowHalfWindowNeverNegative) {
  // The exponential is front-loaded, so E(t, X) <= t/2 always.
  for (double t : {1e-6, 0.1, 1.0, 100.0}) {
    for (double rate : {1e-9, 1e-3, 1.0, 50.0}) {
      const double e = truncated_mean(t, rate);
      EXPECT_GE(e, 0.0);
      EXPECT_LE(e, t / 2.0 + 1e-12) << "t=" << t << " rate=" << rate;
    }
  }
}

TEST(TruncatedMean, SeriesBranchMatchesBernoulliExpansion) {
  // Below the u = 1e-4 switchover the implementation uses the series
  // E/t = 1/2 - u/12 + u^3/720; check it against the expansion evaluated
  // by hand, and check the closed-form branch just above the switchover
  // against the same expansion (where it is still accurate to ~1e-12).
  const double t = 1.0;
  for (const double u : {1e-6, 5e-5, 0.99e-4}) {
    const double series = 0.5 - u / 12.0 + u * u * u / 720.0;
    EXPECT_NEAR(truncated_mean(t, u), t * series, 1e-15);
  }
  const double u = 1.5e-4;
  const double series = 0.5 - u / 12.0 + u * u * u / 720.0;
  EXPECT_NEAR(truncated_mean(t, u), t * series, 1e-11);
}

TEST(TruncatedMean, ZeroWindow) {
  EXPECT_EQ(truncated_mean(0.0, 1.0), 0.0);
  EXPECT_EQ(truncated_mean(-1.0, 1.0), 0.0);
}

TEST(ExpectedRetries, MatchesGeometricQuotient) {
  // expm1(Xt) must equal P/(1-P) with P = 1 - e^{-Xt}.
  for (double t : {0.1, 1.0, 5.0}) {
    for (double rate : {0.01, 0.3, 1.5}) {
      const double p = failure_probability(t, rate);
      EXPECT_NEAR(expected_retries(t, rate), p / (1.0 - p), 1e-9);
    }
  }
}

TEST(ExpectedRetries, ZeroForSafeOperations) {
  EXPECT_EQ(expected_retries(0.0, 5.0), 0.0);
  EXPECT_EQ(expected_retries(5.0, 0.0), 0.0);
}

TEST(ExpectedRetries, ScalesLinearlyWithCount) {
  EXPECT_NEAR(expected_retries(2.0, 0.1, 7.0),
              7.0 * expected_retries(2.0, 0.1), 1e-12);
}

TEST(ExpectedRetries, DivergesForHopelessOperations) {
  // An operation lasting 1000 MTBFs essentially never completes.
  EXPECT_TRUE(std::isinf(expected_retries(1000.0, 1.0)));
}

}  // namespace
}  // namespace mlck::math
