#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/distribution.h"
#include "math/exponential.h"
#include "math/failure_law.h"
#include "util/rng.h"

namespace mlck::math {
namespace {

TEST(ExponentialDist, MatchesClosedFormKernels) {
  const Exponential d(0.25);
  for (const double t : {0.1, 1.0, 4.0, 20.0}) {
    EXPECT_NEAR(d.cdf(t), failure_probability(t, 0.25), 1e-15);
  }
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_NE(d.describe().find("exponential"), std::string::npos);
}

TEST(ExponentialDist, SampleMoments) {
  const Exponential d(0.5);
  util::Rng rng(1);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += d.sample(rng);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(ExponentialDist, RejectsBadRate) {
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(WeibullDist, ShapeOneIsExponential) {
  // Weibull(k=1, scale) == Exponential(rate=1/scale). This also
  // cross-validates the Weibull primitive's incomplete-gamma truncated
  // mean against the exponential closed form.
  const Weibull w(1.0, 5.0);
  const Exponential e(0.2);
  const auto primitive = FailureLaw::weibull(1.0)->primitive(0.2);
  for (const double t : {0.5, 2.0, 10.0, 40.0}) {
    EXPECT_NEAR(w.cdf(t), e.cdf(t), 1e-12);
    EXPECT_NEAR(primitive->truncated_mean(t), truncated_mean(t, 0.2), 1e-7)
        << "t=" << t;
  }
  EXPECT_NEAR(w.mean(), 5.0, 1e-12);
}

TEST(WeibullDist, WithMeanHitsTheMean) {
  for (const double shape : {0.5, 0.7, 1.0, 1.5, 3.0}) {
    const Weibull w = Weibull::with_mean(10.0, shape);
    EXPECT_NEAR(w.mean(), 10.0, 1e-9) << "shape=" << shape;
    util::Rng rng(7);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += w.sample(rng);
    // Heavy-tailed shapes need looser sampling tolerance.
    EXPECT_NEAR(sum / n, 10.0, 0.35) << "shape=" << shape;
  }
}

TEST(WeibullDist, SmallShapeHasHeavierTail) {
  const Weibull heavy = Weibull::with_mean(10.0, 0.7);
  const Weibull expo = Weibull::with_mean(10.0, 1.0);
  // Same mean, but more mass far out *and* more mass very early — the
  // failure-burst behaviour.
  EXPECT_LT(heavy.cdf(30.0), expo.cdf(30.0));
  EXPECT_GT(heavy.cdf(1.0), expo.cdf(1.0));
}

TEST(WeibullDist, TruncatedMeanBelowWindowAndMonotone) {
  const auto w = FailureLaw::weibull(0.7)->primitive(1.0 / 10.0);
  double previous = 0.0;
  for (const double t : {1.0, 3.0, 9.0, 27.0, 81.0}) {
    const double e = w->truncated_mean(t);
    EXPECT_GT(e, previous);
    EXPECT_LT(e, t);
    previous = e;
  }
}

TEST(WeibullDist, RejectsBadParameters) {
  EXPECT_THROW(Weibull(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Weibull(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(Weibull::with_mean(-1.0, 1.0), std::invalid_argument);
}

TEST(LogNormalDist, MeanAndMedian) {
  const LogNormal d = LogNormal::with_mean(10.0, 0.8);
  EXPECT_NEAR(d.mean(), 10.0, 1e-9);
  // Median = exp(mu) = mean * exp(-sigma^2/2).
  const double median = 10.0 * std::exp(-0.32);
  EXPECT_NEAR(d.cdf(median), 0.5, 1e-9);
}

TEST(LogNormalDist, SampleMoments) {
  const LogNormal d = LogNormal::with_mean(6.0, 0.5);
  util::Rng rng(9);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = d.sample(rng);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 6.0, 0.1);
}

TEST(LogNormalDist, NoMassAtOrBelowZero) {
  const LogNormal d(1.0, 0.5);
  EXPECT_EQ(d.cdf(0.0), 0.0);
  EXPECT_EQ(d.cdf(-3.0), 0.0);
}

TEST(LogNormalDist, RejectsBadSigma) {
  EXPECT_THROW(LogNormal(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LogNormal::with_mean(0.0, 1.0), std::invalid_argument);
}

TEST(GenericTruncatedMean, MatchesMonteCarloForWeibull) {
  const Weibull w = Weibull::with_mean(8.0, 1.4);
  const double window = 6.0;
  util::Rng rng(11);
  double sum = 0.0;
  int hits = 0;
  for (int i = 0; i < 400000; ++i) {
    const double x = w.sample(rng);
    if (x <= window) {
      sum += x;
      ++hits;
    }
  }
  ASSERT_GT(hits, 1000);
  const auto primitive = FailureLaw::weibull(1.4)->primitive(1.0 / 8.0);
  EXPECT_NEAR(primitive->truncated_mean(window), sum / hits, 0.02);
}

// ---------------------------------------------------------------------------
// Draw-stream pinning: the simulator's reproducibility story depends on
// every sampler's uniform budget and draw order staying fixed (trial k
// replays stream derive_stream_seed(seed, k) draw for draw).

void expect_uniform_budget(const FailureDistribution& dist, int budget) {
  const std::uint64_t seed = 0xb4d9e7ull;
  util::Rng sampled(seed);
  static_cast<void>(dist.sample(sampled));
  util::Rng skipped(seed);
  for (int i = 0; i < budget; ++i) static_cast<void>(skipped.uniform());
  // If the sampler consumed exactly `budget` uniforms, both streams are
  // now aligned and must agree bit for bit.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sampled.uniform(), skipped.uniform()) << dist.describe();
  }
}

TEST(DistributionSampling, SamplersConsumeTheirDocumentedUniformBudgets) {
  expect_uniform_budget(Exponential(1.0 / 100.0), 1);
  expect_uniform_budget(*FailureLaw::weibull(0.7)->distribution(100.0), 1);
  expect_uniform_budget(*FailureLaw::lognormal(1.0)->distribution(100.0), 2);
}

TEST(DistributionSampling, GoldenDrawStreamsAreStable) {
  // First six draws of each sampler on seed 0x51ab5eed. A change here
  // means seeded simulations no longer replay historic results — that is
  // a breaking change and must be a deliberate one.
  struct Golden {
    std::unique_ptr<FailureDistribution> dist;
    std::vector<double> draws;
  };
  const Golden goldens[] = {
      {std::make_unique<Exponential>(1.0 / 100.0),
       {37.521486502239519, 133.72471870328749, 154.00376245607484,
        17.744049318752076, 183.44300005563616, 13.969167705938503}},
      {FailureLaw::weibull(0.7)->distribution(100.0),
       {19.474013475525926, 119.65456229192921, 146.39584323353645,
        6.6810548616752632, 187.95637046447138, 4.7472476536765056}},
      {FailureLaw::lognormal(1.0)->distribution(100.0),
       {56.646886974584881, 151.61192188157892, 224.32325988738947,
        577.4562086677231, 244.47879911032743, 42.518580235015769}},
  };
  for (const Golden& g : goldens) {
    util::Rng rng(0x51ab5eedULL);
    for (std::size_t i = 0; i < g.draws.size(); ++i) {
      const double draw = g.dist->sample(rng);
      EXPECT_NEAR(draw, g.draws[i], 1e-10 * g.draws[i])
          << g.dist->describe() << " draw " << i;
    }
  }
}

}  // namespace
}  // namespace mlck::math
