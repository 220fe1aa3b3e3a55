// Property and contract tests for the failure-law layer: the closed-form
// primitives against the independent quadrature oracle (src/verify), the
// Weibull-shape metamorphic ordering of model forecasts, and the CLI/JSON
// parse grammar.

#include <cfloat>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "engine/scenario.h"
#include "math/failure_law.h"
#include "prop_support.h"
#include "systems/system_config.h"
#include "systems/test_systems.h"
#include "util/json.h"
#include "util/rng.h"
#include "verify/oracle.h"

namespace mlck {
namespace {

using math::FailureLaw;
using verify::OracleLaw;

// Agreement bands against the quadrature oracle on the documented domain
// (window mass >= 1e-12, retry factor <= 1e10). The closed forms are
// exact to floating point; the measured worst-case relative error over
// 80,000 draws of this test's sampler was 1.3e-12 on each quantity (the
// oracle's own quadrature noise, at log-normal sigma = 1.5), so these
// bands sit under 10x of it. A change that breaks them is a real
// accuracy regression.
constexpr double kCdfTol = 1e-11;
constexpr double kTmeanTol = 1e-11;
constexpr double kRetriesTol = 1e-11;

/// Relative difference scaled to the reference magnitude (guarded at 0).
double rel_err(double value, double reference) {
  const double scale = std::max(std::abs(reference), 1e-300);
  return std::abs(value - reference) / scale;
}

struct LawFamilyUnderTest {
  std::shared_ptr<const FailureLaw> family;
  /// The oracle's selector for the same family: quadrature of the
  /// substituted density, sharing nothing with the closed forms beyond
  /// libm.
  OracleLaw oracle;
};

LawFamilyUnderTest weibull(double shape) {
  OracleLaw oracle;
  oracle.kind = OracleLaw::Kind::kWeibull;
  oracle.shape = shape;
  return {FailureLaw::weibull(shape), oracle};
}

LawFamilyUnderTest lognormal(double sigma) {
  OracleLaw oracle;
  oracle.kind = OracleLaw::Kind::kLogNormal;
  oracle.sigma = sigma;
  return {FailureLaw::lognormal(sigma), oracle};
}

std::vector<LawFamilyUnderTest> families_under_test() {
  return {weibull(0.5), weibull(0.7), weibull(3.0), lognormal(0.3),
          lognormal(1.5)};
}

TEST(FailureLaw, MatchesDirectQuadratureOnTheDocumentedDomain) {
  const std::uint64_t seed = testprop::suite_seed(0x7ab1a7ed);
  SCOPED_TRACE(testprop::repro(
      "FailureLaw.MatchesDirectQuadratureOnTheDocumentedDomain", seed));
  util::Rng rng(seed);

  const auto laws = families_under_test();
  int checked = 0;
  while (checked < 400) {
    const auto& law = laws[rng.below(laws.size())];
    // Rates across the model's realistic span (MTBF minutes..weeks) and
    // windows from deep inside the mean to many means past it.
    const double rate = std::pow(10.0, -4.0 + 4.0 * rng.uniform());
    const double mean = 1.0 / rate;
    const double t = mean * std::pow(10.0, -3.0 + 4.0 * rng.uniform());

    const double f_ref =
        verify::oracle_failure_probability(t, rate, law.oracle);
    const double s_ref = verify::oracle_survival(t, rate, law.oracle);
    if (f_ref < 1e-12) continue;  // outside the documented domain
    const double retries_ref = f_ref / s_ref;
    if (!(retries_ref <= 1e10)) continue;
    ++checked;

    const auto primitive = law.family->primitive(rate);
    EXPECT_LE(rel_err(primitive->failure_probability(t), f_ref), kCdfTol)
        << primitive->describe() << " cdf at t=" << t << " rate=" << rate;
    // The conditional mean E[T | T <= t] divides by F(t), and the oracle
    // resolves a tiny F(t) only to its absolute quadrature tolerance; the
    // model always multiplies E(t, X) back by P = F(t), bounding the
    // absolute contribution by t * F(t). Hold the relative tolerance
    // where the mass is resolvable.
    if (f_ref >= 1e-8) {
      EXPECT_LE(rel_err(primitive->truncated_mean(t),
                        verify::oracle_truncated_mean(t, rate, law.oracle)),
                kTmeanTol)
          << primitive->describe() << " truncated_mean at t=" << t
          << " rate=" << rate;
    }
    EXPECT_LE(rel_err(primitive->expected_retries(t), retries_ref),
              kRetriesTol)
        << primitive->describe() << " retries at t=" << t
        << " rate=" << rate;
  }
}

TEST(FailureLaw, ScaleFamilySharesOneUnitLaw) {
  // primitive(rate) must mean "the family member with mean 1/rate":
  // P(t; rate) == P_unit(t * rate) exactly (a scaled view of one
  // unit-mean law), so serving many rates stays cheap and consistent.
  const auto family = FailureLaw::weibull(0.7);
  const auto a = family->primitive(0.01);
  const auto b = family->primitive(2.0);
  for (const double u : {0.05, 0.3, 1.0, 4.0}) {
    EXPECT_EQ(a->failure_probability(u / 0.01),
              b->failure_probability(u / 2.0));
    EXPECT_EQ(a->expected_retries(u / 0.01), b->expected_retries(u / 2.0));
    // Rescaling to unit time multiplies by different rates, so allow the
    // one-rounding difference of x/0.01*0.01 vs x/2.0*2.0.
    EXPECT_DOUBLE_EQ(a->truncated_mean(u / 0.01) * 0.01,
                     b->truncated_mean(u / 2.0) * 2.0);
  }
}

TEST(FailureLaw, ConventionsHoldFromEmptyToOverflowingWindows) {
  // docs/MODELS.md edge conventions: t <= 0 yields 0, a window with no
  // normal-range mass is failure-free (E = t/2), and windows whose
  // Weibull z = (t/s)^k overflows still answer F = 1, E = mean,
  // retries = +inf rather than NaN.
  auto laws = families_under_test();
  laws.push_back(weibull(50.0));
  for (const auto& law : laws) {
    const auto p = law.family->primitive(1.0 / 50.0);
    SCOPED_TRACE(p->describe());
    EXPECT_EQ(p->failure_probability(0.0), 0.0);
    EXPECT_EQ(p->truncated_mean(-1.0), 0.0);
    EXPECT_EQ(p->expected_retries(0.0), 0.0);
    // Heavy early tails (Weibull k < 1) still hold normal-range mass here.
    if (p->failure_probability(1e-300) < DBL_MIN) {
      EXPECT_EQ(p->truncated_mean(1e-300), 0.5e-300);
      EXPECT_EQ(p->expected_retries(1e-300), 0.0);
    }
    for (const double t : {1e-300, 1e-10, 1.0, 50.0, 1e10, 1e300}) {
      const double f = p->failure_probability(t);
      const double e = p->truncated_mean(t);
      EXPECT_TRUE(f >= 0.0 && f <= 1.0) << "t=" << t << " F=" << f;
      EXPECT_TRUE(e >= 0.0 && e <= t) << "t=" << t << " E=" << e;
      EXPECT_GE(p->expected_retries(t), 0.0) << "t=" << t;
    }
    EXPECT_EQ(p->failure_probability(1e300), 1.0);
    EXPECT_NEAR(p->truncated_mean(1e300), 50.0, 1e-9);
    EXPECT_EQ(p->expected_retries(1e300),
              std::numeric_limits<double>::infinity());
  }
  // Below shape ~0.0059, Gamma(1 + 1/k) overflows: no unit-mean scale.
  EXPECT_THROW(FailureLaw::weibull(0.001), std::invalid_argument);
  EXPECT_THROW(FailureLaw::lognormal(0.0), std::invalid_argument);
}

TEST(FailureLaw, ExpectedTimeIsMonotoneInWeibullShape) {
  // Metamorphic ordering: at a fixed plan and fixed per-severity means, a
  // smaller Weibull shape means burstier failures (heavier early mass),
  // which can only cost time; shape -> larger approaches the light-tailed
  // regime. Forecasts must be non-increasing across ascending shapes on
  // the paper's reference systems.
  const double shapes[] = {0.5, 0.7, 1.0, 1.5, 2.0, 3.0};
  for (const char* name : {"M", "B", "D3"}) {
    const auto system = systems::table1_system(name);
    const core::DauweModel bare;
    const auto plan = core::optimize_intervals(bare, system).plan;
    double previous = std::numeric_limits<double>::infinity();
    for (const double shape : shapes) {
      const core::DauweModel model({}, FailureLaw::weibull(shape));
      const double t = model.expected_time(system, plan);
      EXPECT_TRUE(std::isfinite(t)) << name << " shape " << shape;
      EXPECT_LE(t, previous * (1.0 + 1e-9))
          << name << ": shape " << shape << " worsened the forecast";
      previous = t;
    }
  }
}

TEST(FailureLaw, PrimitiveRejectsNonPositiveRates) {
  EXPECT_THROW(FailureLaw::weibull(0.7)->primitive(0.0),
               std::invalid_argument);
  EXPECT_THROW(FailureLaw::lognormal(1.0)->primitive(-1.0),
               std::invalid_argument);
}

TEST(DistributionSpec, ParseGrammarRoundTrips) {
  using engine::DistributionSpec;
  const auto weibull = DistributionSpec::parse("weibull:shape=0.7,scale=120");
  EXPECT_EQ(weibull.kind, DistributionSpec::Kind::kWeibull);
  EXPECT_EQ(weibull.shape, 0.7);
  EXPECT_EQ(weibull.scale, 120.0);
  EXPECT_EQ(weibull.mean, 0.0);
  EXPECT_EQ(DistributionSpec::parse(weibull.to_string()).to_string(),
            weibull.to_string());

  const auto lognormal = DistributionSpec::parse("lognormal:sigma=1.5");
  EXPECT_EQ(lognormal.kind, DistributionSpec::Kind::kLogNormal);
  EXPECT_EQ(lognormal.sigma, 1.5);
  EXPECT_EQ(DistributionSpec::parse(lognormal.to_string()).to_string(),
            lognormal.to_string());

  const auto exponential = DistributionSpec::parse("exponential");
  EXPECT_TRUE(exponential.is_default_exponential());
  EXPECT_EQ(exponential.to_string(), "exponential");

  // The JSON form round-trips through the same fields.
  const auto back = DistributionSpec::from_json(weibull.to_json());
  EXPECT_EQ(back.to_string(), weibull.to_string());
}

TEST(DistributionSpec, ParseRejectsMalformedSpecs) {
  using engine::DistributionSpec;
  EXPECT_THROW(DistributionSpec::parse("gamma"), std::invalid_argument);
  EXPECT_THROW(DistributionSpec::parse("weibull:form=0.7"),
               std::invalid_argument);
  EXPECT_THROW(DistributionSpec::parse("lognormal:shape=0.7"),
               std::invalid_argument);  // shape is Weibull-only
  EXPECT_THROW(DistributionSpec::parse("weibull:sigma=1"),
               std::invalid_argument);  // sigma is log-normal-only
  EXPECT_THROW(DistributionSpec::parse("weibull:shape=-1"),
               std::invalid_argument);
  EXPECT_THROW(DistributionSpec::parse("weibull:shape=0.7x"),
               std::invalid_argument);
  EXPECT_THROW(DistributionSpec::parse("weibull:mean=10,scale=10"),
               std::invalid_argument);  // mutually exclusive
  EXPECT_THROW(DistributionSpec::parse(""), std::invalid_argument);

  // The JSON "failure" section is exactly as strict: a parameter of
  // another law is rejected (naming the key), never silently ignored.
  const auto expect_json_rejected = [](const char* text, const char* key) {
    try {
      DistributionSpec::from_json(util::Json::parse(text));
      FAIL() << text << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find(std::string("\"") + key + "\""),
                std::string::npos)
          << message;
      EXPECT_NE(message.find("scenario.failure"), std::string::npos)
          << message;
    }
  };
  expect_json_rejected(R"({"law":"lognormal","shape":0.7})", "shape");
  expect_json_rejected(R"({"law":"weibull","sigma":1})", "sigma");
  expect_json_rejected(R"({"shape":0.7})", "shape");  // default exponential
  expect_json_rejected(R"({"law":"exponential","sigma":1})", "sigma");
  expect_json_rejected(R"({"law":"weibull","form":0.7})", "form");
  EXPECT_THROW(
      DistributionSpec::from_json(util::Json::parse(R"({"law":"gamma"})")),
      std::invalid_argument);
  EXPECT_THROW(DistributionSpec::from_json(util::Json::parse(
                   R"({"law":"weibull","shape":-1})")),
               std::invalid_argument);
  EXPECT_THROW(DistributionSpec::from_json(util::Json::parse(
                   R"({"law":"weibull","mean":10,"scale":10})")),
               std::invalid_argument);
}

TEST(DistributionSpec, ResolvedMeanFollowsScaleConventions) {
  using engine::DistributionSpec;
  const double mtbf = 240.0;

  auto spec = DistributionSpec::parse("weibull:shape=0.7");
  EXPECT_EQ(spec.resolved_mean(mtbf), mtbf);

  spec = DistributionSpec::parse("weibull:shape=0.7,mean=100");
  EXPECT_EQ(spec.resolved_mean(mtbf), 100.0);

  // Weibull scale lambda: mean = lambda * Gamma(1 + 1/shape).
  spec = DistributionSpec::parse("weibull:shape=0.7,scale=120");
  EXPECT_NEAR(spec.resolved_mean(mtbf), 120.0 * std::tgamma(1.0 + 1.0 / 0.7),
              1e-9);

  // Log-normal scale = median exp(mu): mean = median * exp(sigma^2 / 2).
  spec = DistributionSpec::parse("lognormal:sigma=1,scale=50");
  EXPECT_NEAR(spec.resolved_mean(mtbf), 50.0 * std::exp(0.5), 1e-9);
}

}  // namespace
}  // namespace mlck
