// Property tests for the prefix-incremental sweep cursor
// (core::DauweKernel::Cursor) and the staged optimizer path built on it.
// The cursor's contract is *bit*-identity with the per-plan entry points,
// so every comparison here is EXPECT_EQ on doubles, not a tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/dauwe_kernel.h"
#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "prop_support.h"
#include "systems/system_config.h"

namespace mlck::core {
namespace {

constexpr std::uint64_t kSeed = 20180521;  // paper submission date; fixed

systems::SystemConfig random_system(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> levels_dist(1, 5);
  const int L = levels_dist(rng);
  std::uniform_real_distribution<double> mtbf_dist(30.0, 20000.0);
  std::uniform_real_distribution<double> share_dist(0.05, 1.0);
  std::uniform_real_distribution<double> cost_dist(0.005, 30.0);
  std::uniform_real_distribution<double> base_dist(200.0, 5000.0);

  std::vector<double> severity(static_cast<std::size_t>(L));
  double total = 0.0;
  for (double& s : severity) total += (s = share_dist(rng));
  for (double& s : severity) s /= total;
  std::vector<double> cost(static_cast<std::size_t>(L));
  for (double& c : cost) c = cost_dist(rng);
  return systems::SystemConfig::from_table_row(
      "rand", L, mtbf_dist(rng), severity, cost, base_dist(rng));
}

/// Random non-empty ascending subset of the system's levels.
std::vector<int> random_subset(std::mt19937_64& rng, int levels) {
  std::vector<int> subset;
  while (subset.empty()) {
    for (int l = 0; l < levels; ++l) {
      if (std::bernoulli_distribution(0.6)(rng)) subset.push_back(l);
    }
  }
  return subset;
}

DauweOptions random_options(std::mt19937_64& rng) {
  DauweOptions opt;
  opt.checkpoint_failures = std::bernoulli_distribution(0.8)(rng);
  opt.restart_failures = std::bernoulli_distribution(0.8)(rng);
  opt.renormalize_severity_shares = std::bernoulli_distribution(0.5)(rng);
  return opt;
}

double pattern_of(const std::vector<int>& counts) {
  double p = 1.0;
  for (const int n : counts) p *= static_cast<double>(n + 1);
  return p;
}

TEST(StagedSweep, CursorBitMatchesPerPlanPathOnRandomSystems) {
  const std::uint64_t seed = testprop::suite_seed(kSeed);
  SCOPED_TRACE(testprop::repro(
      "StagedSweep.CursorBitMatchesPerPlanPathOnRandomSystems", seed));
  std::mt19937_64 rng(seed);
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto sys = random_system(rng);
    const auto subset = random_subset(rng, sys.levels());
    const DauweOptions opt = random_options(rng);
    const DauweKernel kernel(sys, subset, opt);
    const DauweModel model(opt);
    const std::size_t dims = subset.size() - 1;

    // One cursor reused across several plans of this subset, exercising
    // the sibling-sharing paths the sweep relies on: full re-begin,
    // partial re-push from a random depth, and stale deeper stages.
    auto cursor = kernel.cursor();
    std::uniform_real_distribution<double> tau_dist(1e-4, 0.999);
    // Counts up to 40 make tau0 * prod(N+1) > T_B reasonably common, so
    // both feasible and infeasible leaves are exercised.
    std::uniform_int_distribution<int> count_dist(0, 40);
    std::vector<int> counts(dims, 0);
    double tau0 = tau_dist(rng) * sys.base_time;
    cursor.begin(tau0);
    for (std::size_t d = 0; d < dims; ++d) {
      counts[d] = count_dist(rng);
      cursor.push_stage(static_cast<int>(d), counts[d]);
    }

    for (int plan_i = 0; plan_i < 6; ++plan_i) {
      const double staged = cursor.finish_expected_time(pattern_of(counts));
      const double fresh = kernel.expected_time(tau0, counts);
      ASSERT_EQ(staged, fresh)
          << "trial " << trial << " plan " << plan_i << " tau0 " << tau0;
      if (std::isfinite(fresh)) {
        ++feasible;
        // And the kernel itself is an exact factoring of the model.
        CheckpointPlan plan;
        plan.tau0 = tau0;
        plan.levels = subset;
        plan.counts = counts;
        ASSERT_EQ(fresh, model.expected_time(sys, plan));
      } else {
        ++infeasible;
        ASSERT_EQ(staged, std::numeric_limits<double>::infinity());
      }

      // Mutate the plan for the next round: usually a partial re-push
      // from a random depth (the sweep's sibling step), sometimes a
      // fresh tau0 (the sweep's next slice).
      if (dims > 0 && std::bernoulli_distribution(0.7)(rng)) {
        const auto d = static_cast<std::size_t>(std::uniform_int_distribution<
            int>(0, static_cast<int>(dims) - 1)(rng));
        for (std::size_t k = d; k < dims; ++k) {
          counts[k] = count_dist(rng);
          cursor.push_stage(static_cast<int>(k), counts[k]);
        }
      } else {
        tau0 = tau_dist(rng) * sys.base_time;
        cursor.begin(tau0);
        for (std::size_t k = 0; k < dims; ++k) {
          counts[k] = count_dist(rng);
          cursor.push_stage(static_cast<int>(k), counts[k]);
        }
      }
    }
  }
  // The generator must actually cover both outcomes, or the test is
  // silently weaker than it claims.
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 100);
}

TEST(StagedSweep, StagedOptimizeBitMatchesGenericOnRandomSystems) {
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0x5747454Eu);
  SCOPED_TRACE(testprop::repro(
      "StagedSweep.StagedOptimizeBitMatchesGenericOnRandomSystems", seed));
  std::mt19937_64 rng(seed);
  OptimizerOptions opts;  // shrunk grid: exactness is per-plan, not scale
  opts.coarse_tau_points = 16;
  opts.max_count = 12;
  opts.refine_rounds = 4;
  for (int trial = 0; trial < 12; ++trial) {
    const auto sys = random_system(rng);
    const DauweOptions model_opt = random_options(rng);
    const DauweModel model(model_opt);

    std::vector<std::unique_ptr<const DauweKernel>> kernels;
    const auto factory =
        [&](const std::vector<int>& levels) -> const DauweKernel& {
      kernels.push_back(
          std::make_unique<const DauweKernel>(sys, levels, model_opt));
      return *kernels.back();
    };

    const auto generic = optimize_intervals(model, sys, opts);
    const auto staged = optimize_intervals_staged(factory, sys, opts);
    EXPECT_EQ(generic.plan.tau0, staged.plan.tau0) << "trial " << trial;
    EXPECT_EQ(generic.plan.levels, staged.plan.levels) << "trial " << trial;
    EXPECT_EQ(generic.plan.counts, staged.plan.counts) << "trial " << trial;
    EXPECT_EQ(generic.expected_time, staged.expected_time)
        << "trial " << trial;
    EXPECT_EQ(generic.efficiency, staged.efficiency) << "trial " << trial;
    EXPECT_LE(staged.evaluations, generic.evaluations) << "trial " << trial;
  }
}

TEST(StagedSweep, WinnerSurvivesLaneBatchingAndPruning) {
  // The staged search (8-lane batching + admissible subtree pruning)
  // gives up sweep-order identity with the per-plan overload but NOT
  // winner identity: the incumbent cut is strict, so every
  // minimum-achieving leaf survives and the tie-broken winner is the same
  // bit for bit. Evaluation counts shrink instead, and the difference
  // must be exactly accounted by the two prune counters.
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0x4C414E45u);
  SCOPED_TRACE(testprop::repro(
      "StagedSweep.WinnerSurvivesLaneBatchingAndPruning", seed));
  std::mt19937_64 rng(seed);
  OptimizerOptions opts;
  opts.coarse_tau_points = 16;
  opts.max_count = 12;
  opts.refine_rounds = 4;

  const std::size_t rungs = count_ladder(opts.max_count).size();
  std::size_t bound_cuts = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const auto sys = random_system(rng);
    const DauweOptions model_opt = random_options(rng);
    const DauweModel model(model_opt);

    std::vector<std::unique_ptr<const DauweKernel>> kernels;
    const auto factory =
        [&](const std::vector<int>& levels) -> const DauweKernel& {
      kernels.push_back(
          std::make_unique<const DauweKernel>(sys, levels, model_opt));
      return *kernels.back();
    };

    const auto a = optimize_intervals(model, sys, opts);
    const auto b = optimize_intervals_staged(factory, sys, opts);
    EXPECT_EQ(a.plan.tau0, b.plan.tau0) << "trial " << trial;
    EXPECT_EQ(a.plan.levels, b.plan.levels) << "trial " << trial;
    EXPECT_EQ(a.plan.counts, b.plan.counts) << "trial " << trial;
    EXPECT_EQ(a.expected_time, b.expected_time) << "trial " << trial;
    EXPECT_EQ(a.efficiency, b.efficiency) << "trial " << trial;
    EXPECT_LE(b.evaluations, a.evaluations) << "trial " << trial;

    std::size_t lattice = 0;
    for (int dims = 0; dims < sys.levels(); ++dims) {
      std::size_t leaves = 1;
      for (int d = 0; d < dims; ++d) leaves *= rungs;
      lattice += static_cast<std::size_t>(opts.coarse_tau_points) * leaves;
    }
    EXPECT_EQ(b.coarse_evaluations + b.pruned_feasibility + b.pruned_bound,
              lattice)
        << "trial " << trial;
    bound_cuts += b.pruned_bound;
  }
  // The bound must actually fire somewhere, or this test is vacuous.
  EXPECT_GT(bound_cuts, 0u);
}

}  // namespace
}  // namespace mlck::core
