#include "verify/generators.h"

#include <algorithm>
#include <cmath>

namespace mlck::verify {

namespace {

/// Log-uniform sample in [lo, hi].
double log_uniform(util::Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.uniform());
}

}  // namespace

VerifyLaw exponential_verify_law() { return {}; }

VerifyLaw weibull_verify_law(double shape) {
  VerifyLaw law;
  law.oracle.kind = OracleLaw::Kind::kWeibull;
  law.oracle.shape = shape;
  law.family = math::FailureLaw::weibull(shape);
  law.name = law.family->describe();
  // Tightened from 0.15 when the batch engine made 600-trial Welch runs
  // the default; measured worst-case gaps per law in docs/MODELS.md.
  law.welch_rel_tolerance = 0.10;
  return law;
}

VerifyLaw lognormal_verify_law(double sigma) {
  VerifyLaw law;
  law.oracle.kind = OracleLaw::Kind::kLogNormal;
  law.oracle.sigma = sigma;
  law.family = math::FailureLaw::lognormal(sigma);
  law.name = law.family->describe();
  // Slightly wider than Weibull's: the thinning approximation bites
  // harder on the log-normal's light left tail (docs/MODELS.md).
  law.welch_rel_tolerance = 0.12;
  return law;
}

std::vector<VerifyLaw> all_verify_laws() {
  // Small Weibull shapes move the oracle's first-moment mass far from
  // u = 1 (to u ~ 1/k). 0.007 is the admission limit math/failure_law.cpp
  // states for UnitWeibull; below it the library's scale product
  // overflows before the oracle's (docs/TESTING.md).
  return {exponential_verify_law(), weibull_verify_law(0.7),
          weibull_verify_law(0.02), weibull_verify_law(0.007),
          lognormal_verify_law(1.0)};
}

systems::SystemConfig random_system(util::Rng& rng,
                                    const GeneratorOptions& options) {
  const int span = options.max_levels - options.min_levels + 1;
  const int levels =
      options.min_levels +
      static_cast<int>(rng.below(static_cast<std::uint64_t>(span)));

  systems::SystemConfig sys;
  sys.name = "verify";
  sys.mtbf = log_uniform(rng, options.mtbf_min, options.mtbf_max);
  double total = 0.0;
  for (int l = 0; l < levels; ++l) {
    // A floor of 0.05 keeps every severity live (zero-rate levels are
    // covered by dedicated boundary tests, not the random sweep).
    const double weight = 0.05 + rng.uniform();
    sys.severity_probability.push_back(weight);
    total += weight;
  }
  for (double& s : sys.severity_probability) s /= total;

  for (int l = 0; l < levels; ++l) {
    sys.checkpoint_cost.push_back(
        log_uniform(rng, options.cost_min, options.cost_max));
  }
  // Real hierarchies are usually cost-ascending, but the model does not
  // require it; keep a minority of unsorted hierarchies in the stream.
  if (rng.uniform() < 0.8) {
    std::sort(sys.checkpoint_cost.begin(), sys.checkpoint_cost.end());
  }
  sys.restart_cost = sys.checkpoint_cost;
  if (rng.uniform() < 0.25) {
    for (double& r : sys.restart_cost) r *= 0.5 + 1.5 * rng.uniform();
  }
  sys.base_time = log_uniform(rng, options.base_min, options.base_max);
  sys.validate();
  return sys;
}

std::vector<int> random_subset(util::Rng& rng, int levels) {
  std::vector<int> subset;
  while (subset.empty()) {
    for (int l = 0; l < levels; ++l) {
      if (rng.uniform() < 0.65) subset.push_back(l);
    }
  }
  return subset;
}

core::CheckpointPlan random_plan(util::Rng& rng,
                                 const systems::SystemConfig& system,
                                 const GeneratorOptions& options) {
  core::CheckpointPlan plan;
  plan.levels = random_subset(rng, system.levels());
  for (std::size_t k = 0; k + 1 < plan.levels.size(); ++k) {
    plan.counts.push_back(static_cast<int>(
        rng.below(static_cast<std::uint64_t>(options.max_count + 1))));
  }
  const double pattern = static_cast<double>(plan.pattern_period());
  const double bound = system.base_time / pattern;  // feasibility edge
  if (rng.uniform() < options.feasible_fraction) {
    plan.tau0 = bound * (0.02 + 0.93 * rng.uniform());
  } else {
    plan.tau0 = bound * (1.0 + 2.0 * rng.uniform());
  }
  plan.validate(system);
  return plan;
}

core::DauweOptions random_dauwe_options(util::Rng& rng) {
  core::DauweOptions opt;
  opt.checkpoint_failures = rng.uniform() < 0.8;
  opt.restart_failures = rng.uniform() < 0.8;
  opt.renormalize_severity_shares = rng.uniform() < 0.3;
  return opt;
}

VerifyCase make_case(std::uint64_t base_seed, std::size_t index,
                     const GeneratorOptions& options) {
  VerifyCase c;
  c.index = index;
  c.seed = util::derive_stream_seed(base_seed, index);
  util::Rng rng(c.seed);
  c.system = random_system(rng, options);
  c.plan = random_plan(rng, c.system, options);
  c.options = random_dauwe_options(rng);
  // Drawn last so a law pool extends, rather than reshuffles, the
  // system/plan/options stream of an established seed.
  if (!options.laws.empty()) {
    c.law = options.laws[rng.below(options.laws.size())];
  }
  return c;
}

}  // namespace mlck::verify
