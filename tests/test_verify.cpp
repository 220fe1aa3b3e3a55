// Tests for the randomized verification harness itself (src/verify):
// generator determinism and validity, the quadrature oracle against the
// closed forms and the model, the invariant checkers' pass AND fail
// behavior (a checker that cannot fail verifies nothing), and the
// selftest driver's report/replay machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "core/dauwe_model.h"
#include "math/exponential.h"
#include "math/retry.h"
#include "prop_support.h"
#include "systems/test_systems.h"
#include "util/rng.h"
#include "verify/generators.h"
#include "verify/integrate.h"
#include "verify/invariants.h"
#include "verify/oracle.h"
#include "verify/selftest.h"

namespace mlck::verify {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDC0DE;

TEST(Integrate, ExactForPolynomials) {
  // Simpson is exact through cubics; the adaptive wrapper must be too.
  EXPECT_NEAR(integrate([](double x) { return x * x * x; }, 0.0, 2.0), 4.0,
              1e-12);
  EXPECT_NEAR(integrate([](double x) { return 3.0 * x * x; }, -1.0, 1.0),
              2.0, 1e-12);
}

TEST(Integrate, KnownTranscendentals) {
  EXPECT_NEAR(integrate([](double x) { return std::sin(x); }, 0.0,
                        3.141592653589793),
              2.0, 1e-9);
  EXPECT_NEAR(integrate([](double x) { return std::exp(-x); }, 0.0, 50.0),
              1.0, 1e-9);
}

TEST(Integrate, DegenerateInterval) {
  EXPECT_EQ(integrate([](double x) { return x; }, 2.0, 2.0), 0.0);
  EXPECT_EQ(integrate([](double x) { return x; }, 3.0, 2.0), 0.0);
}

TEST(IntegrationDomain, CapsAndSplitsAroundTheMean) {
  const auto unbounded = integration_domain(5.0, 0.0);
  EXPECT_EQ(unbounded.cap, 5.0);
  EXPECT_EQ(unbounded.split, 5.0);

  const auto short_window = integration_domain(3.0, 1.0);
  EXPECT_EQ(short_window.cap, 3.0);  // t below the cap
  EXPECT_EQ(short_window.split, 3.0);

  const auto long_window = integration_domain(1e6, 1.0);
  EXPECT_EQ(long_window.cap, kDomainCapMultiple);
  EXPECT_EQ(long_window.split, kBulkSplitMultiple);
}

TEST(Generators, CasesAreDeterministicAndIndexAddressable) {
  const VerifyCase a = make_case(kSeed, 17);
  const VerifyCase b = make_case(kSeed, 17);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.plan.tau0, b.plan.tau0);
  EXPECT_EQ(a.plan.levels, b.plan.levels);
  EXPECT_EQ(a.plan.counts, b.plan.counts);
  EXPECT_EQ(a.system.mtbf, b.system.mtbf);
  EXPECT_EQ(a.system.severity_probability, b.system.severity_probability);
  // Case k is generated from its own derived stream: case 17 is the same
  // whether or not cases 0..16 were generated first.
  EXPECT_EQ(a.seed, util::derive_stream_seed(kSeed, 17));
  EXPECT_NE(a.seed, make_case(kSeed, 18).seed);
  EXPECT_NE(a.seed, make_case(kSeed + 1, 17).seed);
}

TEST(Generators, SystemsAndPlansAreStructurallyValid) {
  const std::uint64_t seed = testprop::suite_seed(kSeed);
  SCOPED_TRACE(testprop::repro(
      "Generators.SystemsAndPlansAreStructurallyValid", seed));
  const GeneratorOptions opts;
  int feasible = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const VerifyCase c = make_case(seed, i, opts);
    // validate() throws on malformed input; reaching here is the check.
    c.system.validate();
    c.plan.validate(c.system);
    EXPECT_GE(c.system.levels(), opts.min_levels);
    EXPECT_LE(c.system.levels(), opts.max_levels);
    EXPECT_GE(c.system.mtbf, opts.mtbf_min);
    EXPECT_LE(c.system.mtbf, opts.mtbf_max);
    if (c.plan.top_periods(c.system.base_time) >= 1.0) ++feasible;
  }
  // The stream must cover both feasibility regimes or the +inf paths of
  // every consumer go untested.
  EXPECT_GT(feasible, 200);
  EXPECT_LT(feasible, 300);
}

TEST(Generators, SubsetsAreAscendingNonEmptyAndInRange) {
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0x5b5e7);
  SCOPED_TRACE(testprop::repro(
      "Generators.SubsetsAreAscendingNonEmptyAndInRange", seed));
  util::Rng rng(seed);
  for (int round = 0; round < 200; ++round) {
    const int levels = 1 + static_cast<int>(rng.below(5));
    const auto subset = random_subset(rng, levels);
    ASSERT_FALSE(subset.empty());
    for (std::size_t k = 0; k < subset.size(); ++k) {
      ASSERT_GE(subset[k], 0);
      ASSERT_LT(subset[k], levels);
      if (k > 0) {
        ASSERT_LT(subset[k - 1], subset[k]);
      }
    }
  }
}

TEST(Oracle, PrimitivesMatchClosedFormsAcrossScales) {
  // Quadrature vs the expm1/series closed forms in src/math, over nine
  // decades of u = rate * t on both sides of 1.
  for (const double rate : {1e-4, 1e-2, 1.0, 10.0}) {
    for (const double u : {1e-5, 1e-2, 0.5, 1.0, 5.0, 30.0, 120.0, 400.0}) {
      const double t = u / rate;
      SCOPED_TRACE(testing::Message() << "rate=" << rate << " u=" << u);
      EXPECT_NEAR(oracle_failure_probability(t, rate),
                  math::failure_probability(t, rate),
                  1e-11 * std::min(1.0, u));
      const double s = math::survival(t, rate);
      EXPECT_NEAR(oracle_survival(t, rate), s, 1e-11 * s + 1e-300);
      EXPECT_NEAR(oracle_truncated_mean(t, rate), math::truncated_mean(t, rate),
                  1e-10 * math::truncated_mean(t, rate));
      const double r = math::expected_retries(t, rate);
      EXPECT_NEAR(oracle_expected_retries(t, rate), r, 1e-10 * r);
    }
  }
}

TEST(Oracle, PrimitiveEdgeCasesMatchProductionConventions) {
  EXPECT_EQ(oracle_failure_probability(0.0, 1.0), 0.0);
  EXPECT_EQ(oracle_failure_probability(5.0, 0.0), 0.0);
  EXPECT_EQ(oracle_survival(0.0, 1.0), 1.0);
  EXPECT_EQ(oracle_survival(5.0, 0.0), 1.0);
  EXPECT_EQ(oracle_truncated_mean(0.0, 1.0), 0.0);
  // rate -> 0 limit: failures (conditioned on one occurring) are uniform.
  EXPECT_NEAR(oracle_truncated_mean(8.0, 0.0), 4.0, 1e-12);
  EXPECT_NEAR(oracle_truncated_mean(8.0, 1e-9), 4.0, 1e-6);
  EXPECT_EQ(oracle_expected_retries(5.0, 0.0), 0.0);
  // Underflowed survival: infinite retries, like expm1 overflow upstream.
  EXPECT_EQ(oracle_survival(800.0, 1.0), 0.0);
  EXPECT_TRUE(std::isinf(oracle_expected_retries(800.0, 1.0)));
}

TEST(Oracle, TruncatedMeanSurvivesBoundaryLayerRegimes) {
  // Regression for the harness's own first catch: with t >> 1/rate the
  // integrand's mass hides between the first Simpson samples of [0, t]
  // and an uncapped quadrature terminates on an apparent-zero estimate
  // (selftest seed 42 case 123 returned 8.4e-9 instead of ~136.8).
  const double rate = 7.311932e-3;
  const double t = 16805.69965;
  EXPECT_NEAR(oracle_truncated_mean(t, rate), math::truncated_mean(t, rate),
              1e-9 * math::truncated_mean(t, rate));
  for (const double u : {1e3, 1e5, 1e8}) {
    const double big_t = u / rate;
    EXPECT_NEAR(oracle_truncated_mean(big_t, rate), 1.0 / rate,
                1e-9 / rate)
        << "u=" << u;
  }
}

TEST(Oracle, ExpectedTimeMatchesModelOnTableISystems) {
  const core::DauweModel model;
  for (const auto& sys : systems::table1_systems()) {
    std::vector<int> all(static_cast<std::size_t>(sys.levels()));
    for (int l = 0; l < sys.levels(); ++l) all[static_cast<std::size_t>(l)] = l;
    core::CheckpointPlan plan;
    plan.levels = all;
    plan.counts.assign(all.size() - 1, 2);
    plan.tau0 = sys.base_time /
                (static_cast<double>(plan.pattern_period()) * 4.0);
    double condition = 1.0;
    const double oracle =
        oracle_expected_time(sys, plan, {}, &condition);
    const double production = model.expected_time(sys, plan);
    const TolerancePolicy policy;
    EXPECT_TRUE(policy.within(production, oracle, condition))
        << sys.name << ": model " << production << " oracle " << oracle
        << " condition " << condition;
  }
}

TEST(Oracle, ExpectedTimeReportsInfeasibleExactlyLikeTheModel) {
  const auto sys = systems::table1_system("M");
  core::CheckpointPlan plan = core::CheckpointPlan::single_level(
      sys.base_time * 2.0, sys.levels() - 1);
  const core::DauweModel model;
  EXPECT_TRUE(std::isinf(oracle_expected_time(sys, plan)));
  EXPECT_TRUE(std::isinf(model.expected_time(sys, plan)));
}

TEST(Oracle, TolerancePolicyWidensWithConditionAndRejectsNan) {
  const TolerancePolicy policy;
  EXPECT_TRUE(policy.within(100.0, 100.0 * (1.0 + 1e-10)));
  EXPECT_FALSE(policy.within(100.0, 100.0 * (1.0 + 1e-6)));
  // Condition 1e4 widens the band to ~1e-5 relative.
  EXPECT_TRUE(policy.within(100.0, 100.0 * (1.0 + 1e-6), 1e4));
  // ...but never beyond rel_cap.
  EXPECT_FALSE(policy.within(100.0, 102.0, 1e300));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(policy.within(inf, inf));
  EXPECT_FALSE(policy.within(inf, 100.0));
  EXPECT_FALSE(policy.within(std::nan(""), 100.0));
  EXPECT_FALSE(policy.within(100.0, std::nan("")));
}

TEST(Invariants, AllFamiliesPassOnAStreamOfGeneratedCases) {
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0xca5e5);
  SCOPED_TRACE(testprop::repro(
      "Invariants.AllFamiliesPassOnAStreamOfGeneratedCases", seed));
  // The exponential stream, then the `--laws=all` pool, which checks the
  // Weibull and log-normal primitives against the oracle in the same
  // tight band.
  GeneratorOptions all_laws;
  all_laws.laws = all_verify_laws();
  for (const GeneratorOptions& options : {GeneratorOptions{}, all_laws}) {
    for (std::size_t i = 0; i < 60; ++i) {
      const VerifyCase c = make_case(seed, i, options);
      SCOPED_TRACE(testing::Message() << "case " << i << " seed 0x"
                                      << std::hex << c.seed << " law "
                                      << c.law.name);
      const CheckResult oracle = check_oracle_agreement(c);
      for (const auto& f : oracle.failures) {
        ADD_FAILURE() << f.check << ": " << f.detail;
      }
      const CheckResult bits = check_bit_identity(c);
      for (const auto& f : bits.failures) {
        ADD_FAILURE() << f.check << ": " << f.detail;
      }
      const CheckResult meta = check_metamorphic(c);
      for (const auto& f : meta.failures) {
        ADD_FAILURE() << f.check << ": " << f.detail;
      }
    }
  }
}

TEST(Invariants, OracleAgreementDetectsAPerturbedModel) {
  // The checker must fail when the implementations genuinely disagree;
  // simulate a model bug by comparing against a perturbed system (same
  // plan, 0.1% cheaper checkpoints) through the bit-identity lens.
  const VerifyCase c = make_case(kSeed, 3);
  VerifyCase broken = c;
  for (double& d : broken.system.checkpoint_cost) d *= 1.001;
  const core::DauweModel model(c.options);
  const double t_good = model.expected_time(c.system, c.plan);
  const double t_bad = model.expected_time(broken.system, c.plan);
  if (std::isfinite(t_good) && std::isfinite(t_bad)) {
    const TolerancePolicy policy;
    EXPECT_FALSE(policy.within(t_bad, t_good, 1.0));
  }
}

TEST(Invariants, BitIdentityDetectsASingleUlpDifference) {
  CheckResult r;
  const VerifyCase c = make_case(kSeed, 5);
  r = check_bit_identity(c);
  EXPECT_TRUE(r.ok());
  // Self-check of the comparison itself: one ULP must not slip through.
  const double x = 1.0;
  const double y = std::nextafter(x, 2.0);
  TolerancePolicy loose;
  loose.rel = 1.0;  // a tolerance check would accept this
  EXPECT_TRUE(loose.within(x, y));
  // bit_identity's comparator is exercised indirectly: a CheckResult
  // merging a failure stays failed.
  CheckResult merged;
  merged.merge(std::move(r));
  EXPECT_TRUE(merged.ok());
  CheckResult bad;
  bad.fail("bit_identity", "injected");
  merged.merge(std::move(bad));
  EXPECT_FALSE(merged.ok());
  EXPECT_EQ(merged.failures.size(), 1u);
}

TEST(Invariants, MetamorphicCatchesANonMonotoneModel) {
  // Feed the metamorphic checker a case where we *swap* the direction by
  // checking a hand-built impossible pair through non_decreasing's
  // public effect: expected time below T_B must be flagged.
  VerifyCase c = make_case(kSeed, 8);
  // Degenerate system: model time is finite and >= T_B by construction,
  // so the checker passes on real input...
  EXPECT_TRUE(check_metamorphic(c).ok());
  // ...and the oracle-agreement checker fails when handed an absurd
  // tolerance policy (zero band, nonzero quadrature noise), proving the
  // failure path is reachable.
  TolerancePolicy zero;
  zero.rel = 0.0;
  zero.abs = 0.0;
  zero.rel_cap = 0.0;
  bool any_failure = false;
  for (std::size_t i = 0; i < 10 && !any_failure; ++i) {
    any_failure =
        !check_oracle_agreement(make_case(kSeed, i), zero).ok();
  }
  EXPECT_TRUE(any_failure);
}

TEST(Invariants, DominanceHoldsOnGeneratedSystems) {
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0xd0a1);
  SCOPED_TRACE(
      testprop::repro("Invariants.DominanceHoldsOnGeneratedSystems", seed));
  core::OptimizerOptions grid;
  grid.coarse_tau_points = 10;
  grid.max_count = 6;
  grid.refine_rounds = 2;
  for (std::size_t i = 0; i < 8; ++i) {
    const VerifyCase c = make_case(seed, i);
    const CheckResult r = check_optimizer_dominance(c, grid);
    for (const auto& f : r.failures) {
      ADD_FAILURE() << "case " << i << " " << f.check << ": " << f.detail;
    }
  }
}

TEST(Selftest, SmallRunPassesAndCountsEveryPhase) {
  SelftestOptions options;
  options.cases = 24;
  options.seed = 42;
  options.welch_systems = 2;
  options.trials = 60;
  options.dominance_stride = 8;
  std::ostringstream log;
  const SelftestReport report = run_selftest(options, nullptr, &log);
  EXPECT_TRUE(report.passed()) << log.str();
  EXPECT_EQ(report.cases_run, 24u);
  EXPECT_EQ(report.oracle_checked, 24u);
  EXPECT_EQ(report.bit_identity_checked, 24u);
  EXPECT_EQ(report.metamorphic_checked, 24u);
  EXPECT_EQ(report.dominance_checked, 3u);  // cases 0, 8, 16
  EXPECT_EQ(report.welch.size(), 2u);
  EXPECT_GT(report.max_oracle_error, 0.0);
  EXPECT_LT(report.max_oracle_error, 1.0);  // within the documented band
  EXPECT_NE(log.str().find("selftest"), std::string::npos);
}

TEST(Selftest, WeibullBelowTheScaleProductOverflowStaysFinite) {
  // Under shape ~0.007, x * Gamma(1 + 1/k) overflows on long windows
  // while z = (x / s)^k is finite; the model must keep pricing those
  // plans finite (the oracle gives ~1e46 min) instead of +inf.
  SelftestOptions options;
  options.cases = 100;
  options.seed = 42;
  options.welch_systems = 0;
  options.laws_flag = "weibull:shape=0.0065";
  options.generator.laws = {weibull_verify_law(0.0065)};
  std::ostringstream log;
  const SelftestReport report = run_selftest(options, nullptr, &log);
  EXPECT_EQ(report.cases_run, 100u);
  EXPECT_TRUE(report.passed()) << log.str();
}

TEST(Selftest, OnlyCaseReplaysExactlyOneCase) {
  SelftestOptions options;
  options.cases = 50;
  options.seed = 42;
  options.only_case = 17;
  options.welch_systems = 4;  // must be skipped in replay mode
  const SelftestReport report = run_selftest(options);
  EXPECT_EQ(report.cases_run, 1u);
  EXPECT_TRUE(report.welch.empty());
  EXPECT_TRUE(report.passed());
}

TEST(Selftest, ReportJsonCarriesSeedsAsHexStrings) {
  SelftestOptions options;
  options.cases = 4;
  options.seed = 0xDEADBEEFCAFEF00D;  // would lose precision as a double
  options.welch_systems = 1;
  options.trials = 40;
  const SelftestReport report = run_selftest(options);
  const util::Json doc = report.to_json();
  EXPECT_EQ(doc.at("seed").as_string(), "0xdeadbeefcafef00d");
  EXPECT_EQ(doc.at("cases_run").as_number(), 4.0);
  EXPECT_EQ(doc.at("checked").at("oracle").as_number(), 4.0);
  EXPECT_TRUE(doc.at("failures").is_array());
  EXPECT_TRUE(doc.at("welch").is_array());
  EXPECT_EQ(doc.at("passed").as_bool(), report.passed());
  // dump() must produce parseable JSON (no bare inf/nan leaked).
  const util::Json reparsed = util::Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed, doc);
}

TEST(Selftest, WelchValidationIsDeterministic) {
  SelftestOptions options;
  options.cases = 0;
  options.welch_systems = 2;
  options.trials = 50;
  options.seed = 7;
  const SelftestReport a = run_selftest(options);
  const SelftestReport b = run_selftest(options);
  ASSERT_EQ(a.welch.size(), b.welch.size());
  for (std::size_t i = 0; i < a.welch.size(); ++i) {
    EXPECT_EQ(a.welch[i].seed, b.welch[i].seed);
    EXPECT_EQ(a.welch[i].predicted_time, b.welch[i].predicted_time);
    EXPECT_EQ(a.welch[i].sim_mean, b.welch[i].sim_mean);
    EXPECT_EQ(a.welch[i].p_two_sided, b.welch[i].p_two_sided);
    EXPECT_EQ(a.welch[i].skipped, b.welch[i].skipped);
  }
  EXPECT_EQ(a.welch_rejections, b.welch_rejections);
}

TEST(Selftest, FailureRecordsCarryReplayCommands) {
  // Force failures with an impossible tolerance and verify the replay
  // metadata (the contract docs/TESTING.md promises).
  SelftestOptions options;
  options.cases = 6;
  options.seed = 42;
  options.welch_systems = 0;
  options.dominance_stride = 0;
  options.tolerance.rel = 0.0;
  options.tolerance.abs = 0.0;
  options.tolerance.rel_cap = 0.0;
  const SelftestReport report = run_selftest(options);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_FALSE(report.passed());
  for (const auto& f : report.failures) {
    EXPECT_EQ(f.case_seed, util::derive_stream_seed(42, f.case_index));
    std::ostringstream expected;
    expected << "mlck selftest --seed=42 --cases=6 --case=" << f.case_index;
    EXPECT_EQ(f.repro, expected.str());
  }
}

}  // namespace
}  // namespace mlck::verify
