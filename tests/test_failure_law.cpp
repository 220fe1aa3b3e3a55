// Property and contract tests for the failure-law layer: the tabulated
// primitives against direct quadrature within the documented accuracy
// policy (docs/MODELS.md), the Weibull-shape metamorphic ordering of
// model forecasts, the CLI/JSON parse grammar, and the shared
// integration-domain policy.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "engine/scenario.h"
#include "math/distribution.h"
#include "math/failure_law.h"
#include "math/integrate.h"
#include "prop_support.h"
#include "systems/system_config.h"
#include "systems/test_systems.h"
#include "util/json.h"
#include "util/rng.h"

namespace mlck {
namespace {

using math::FailureLaw;

// The documented accuracy policy for the tabulated interpolant, valid on
// the documented domain (window mass >= 1e-12, retry factor <= 1e10):
// measured worst-case errors are ~2e-5 (cdf, truncated mean) and ~2e-4
// (retries) at the default 64 points/decade, so these bands carry ~5x
// headroom. A change that breaks them is a real accuracy regression.
constexpr double kCdfTol = 1e-4;
constexpr double kTmeanTol = 1e-4;
constexpr double kRetriesTol = 1e-3;

/// Relative difference scaled to the reference magnitude (guarded at 0).
double rel_err(double value, double reference) {
  const double scale = std::max(std::abs(reference), 1e-300);
  return std::abs(value - reference) / scale;
}

struct LawFamilyUnderTest {
  std::shared_ptr<const FailureLaw> family;
  /// Reference distribution for a given mean, sharing nothing with the
  /// tabulation beyond libm (closed-form cdf/survival; quadrature
  /// truncated mean through the generic FailureDistribution path).
  std::unique_ptr<math::FailureDistribution> (*reference)(double mean);
};

std::unique_ptr<math::FailureDistribution> weibull_half(double mean) {
  return std::make_unique<math::Weibull>(math::Weibull::with_mean(mean, 0.5));
}
std::unique_ptr<math::FailureDistribution> weibull_07(double mean) {
  return std::make_unique<math::Weibull>(math::Weibull::with_mean(mean, 0.7));
}
std::unique_ptr<math::FailureDistribution> weibull_3(double mean) {
  return std::make_unique<math::Weibull>(math::Weibull::with_mean(mean, 3.0));
}
std::unique_ptr<math::FailureDistribution> lognormal_03(double mean) {
  return std::make_unique<math::LogNormal>(
      math::LogNormal::with_mean(mean, 0.3));
}
std::unique_ptr<math::FailureDistribution> lognormal_15(double mean) {
  return std::make_unique<math::LogNormal>(
      math::LogNormal::with_mean(mean, 1.5));
}

std::vector<LawFamilyUnderTest> families_under_test() {
  std::vector<LawFamilyUnderTest> laws;
  laws.push_back({FailureLaw::weibull(0.5), &weibull_half});
  laws.push_back({FailureLaw::weibull(0.7), &weibull_07});
  laws.push_back({FailureLaw::weibull(3.0), &weibull_3});
  laws.push_back({FailureLaw::lognormal(0.3), &lognormal_03});
  laws.push_back({FailureLaw::lognormal(1.5), &lognormal_15});
  return laws;
}

TEST(TabulatedLaw, MatchesDirectQuadratureOnTheDocumentedDomain) {
  const std::uint64_t seed = testprop::suite_seed(0x7ab1a7ed);
  SCOPED_TRACE(testprop::repro(
      "TabulatedLaw.MatchesDirectQuadratureOnTheDocumentedDomain", seed));
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

    const auto reference = law.reference(mean);
    const double f_ref = reference->cdf(t);
    const double s_ref = reference->survival(t);
    if (f_ref < 1e-12) continue;  // outside the documented domain
    const double retries_ref = f_ref / s_ref;
    if (!(retries_ref <= 1e10)) continue;
    ++checked;

    const auto primitive = law.family->primitive(rate);
    EXPECT_LE(rel_err(primitive->failure_probability(t), f_ref), kCdfTol)
        << primitive->describe() << " cdf at t=" << t << " rate=" << rate;
    // The conditional mean E[T | T <= t] divides by F(t); as the mass
    // approaches the 1e-12 domain floor the tabulation error in that tiny
    // denominator amplifies, while the model always multiplies E(t, X)
    // back by P = F(t), bounding the absolute contribution by t * F(t).
    // Hold the relative tolerance only where the mass is resolvable.
    if (f_ref >= 1e-8) {
      EXPECT_LE(rel_err(primitive->truncated_mean(t),
                        reference->truncated_mean(t)),
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

TEST(TabulatedLaw, ScaleFamilySharesOneUnitTable) {
  // primitive(rate) must mean "the family member with mean 1/rate":
  // P(t; rate) == P_unit(t * rate) exactly (a scaled view, not a fresh
  // tabulation), so serving many rates stays cheap and consistent.
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

TEST(IntegrationDomain, CapsAndSplitsAroundTheMean) {
  const auto unbounded = math::integration_domain(5.0, 0.0);
  EXPECT_EQ(unbounded.cap, 5.0);
  EXPECT_EQ(unbounded.split, 5.0);

  const auto short_window = math::integration_domain(3.0, 1.0);
  EXPECT_EQ(short_window.cap, 3.0);  // t below the cap
  EXPECT_EQ(short_window.split, 3.0);

  const auto long_window = math::integration_domain(1e6, 1.0);
  EXPECT_EQ(long_window.cap, math::kDomainCapMultiple);
  EXPECT_EQ(long_window.split, math::kBulkSplitMultiple);
}

}  // namespace
}  // namespace mlck
