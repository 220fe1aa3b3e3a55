// Randomized property tests for the optimizer's two load-bearing search
// invariants, across random systems, ladder sizes, level subsets, and
// lane/prune configurations (tests/prop_support.h seed discipline):
//
//   1. Feasibility of the winner: whatever path selected it (coarse
//      sweep, lane-batched pruned sweep, refinement), the returned plan
//      satisfies tau0 * prod(N_j + 1) <= T_B. The refinement pass used
//      to violate this for models that stay finite past the bound.
//
//   2. Lattice accounting: coarse_evaluations + pruned_feasibility +
//      pruned_bound == tau_points x ladder^dims summed over the level
//      subsets searched, for every configuration — the invariant that
//      guarantees the pruned sweep skips subtrees it proved dominated
//      and nothing else.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
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

/// Random optimizer configuration: grid sizes spanning lane remainders
/// (tau points not divisible by 8), ladder sizes from trivial to deep,
/// and optional restriction to a random level subset.
OptimizerOptions random_opts(std::mt19937_64& rng, int levels) {
  OptimizerOptions opts;
  opts.coarse_tau_points = std::uniform_int_distribution<int>(1, 21)(rng);
  opts.max_count = std::uniform_int_distribution<int>(0, 24)(rng);
  opts.refine_rounds = std::uniform_int_distribution<int>(0, 4)(rng);
  if (std::bernoulli_distribution(0.4)(rng)) {
    std::vector<int> subset;
    for (int l = 0; l < levels; ++l) {
      if (std::bernoulli_distribution(0.6)(rng)) subset.push_back(l);
    }
    if (!subset.empty()) opts.restrict_levels = subset;
  }
  return opts;
}

/// Coarse lattice size for the subsets this configuration searches:
/// with restrict_levels only that subset, else the full hierarchy plus
/// each skipped suffix (dims = 0 .. levels-1).
std::size_t lattice_size(const systems::SystemConfig& sys,
                         const OptimizerOptions& opts) {
  const std::size_t rungs = count_ladder(opts.max_count).size();
  const auto tau_points = static_cast<std::size_t>(opts.coarse_tau_points);
  if (!opts.restrict_levels.empty()) {
    std::size_t leaves = 1;
    for (std::size_t d = 1; d < opts.restrict_levels.size(); ++d) {
      leaves *= rungs;
    }
    return tau_points * leaves;
  }
  std::size_t lattice = 0;
  for (int dims = 0; dims < sys.levels(); ++dims) {
    std::size_t leaves = 1;
    for (int d = 0; d < dims; ++d) leaves *= rungs;
    lattice += tau_points * leaves;
  }
  return lattice;
}

void check_result(const OptimizationResult& r,
                  const systems::SystemConfig& sys, std::size_t lattice,
                  int trial) {
  EXPECT_LE(r.plan.work_per_top_period(), sys.base_time * (1.0 + 1e-12))
      << "trial " << trial << ": infeasible winner " << r.plan.to_string();
  EXPECT_TRUE(std::isfinite(r.expected_time)) << "trial " << trial;
  EXPECT_EQ(r.coarse_evaluations + r.pruned_feasibility + r.pruned_bound,
            lattice)
      << "trial " << trial;
  // Refinement rides on top of the coarse lattice, never inside it.
  EXPECT_GE(r.evaluations, r.coarse_evaluations) << "trial " << trial;
}

TEST(OptimizerProp, WinnerFeasibleAndLatticeAccountedAcrossConfigs) {
  const std::uint64_t seed = testprop::suite_seed(kSeed ^ 0x50524F50u);
  SCOPED_TRACE(testprop::repro(
      "OptimizerProp.WinnerFeasibleAndLatticeAccountedAcrossConfigs",
      seed));
  std::mt19937_64 rng(seed);
  const DauweModel model;
  std::size_t bound_cuts = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto sys = random_system(rng);
    const OptimizerOptions opts = random_opts(rng, sys.levels());
    const std::size_t lattice = lattice_size(sys, opts);

    // The generic per-plan path: feasibility invariant + accounting
    // with pruned_bound pinned at zero.
    const auto generic = optimize_intervals(model, sys, opts);
    check_result(generic, sys, lattice, trial);
    EXPECT_EQ(generic.pruned_bound, 0u) << "trial " << trial;

    // The staged kernel search: the generic winner, with the bound cuts
    // joining the lattice accounting.
    const DauweOptions model_opt;
    std::vector<std::unique_ptr<const DauweKernel>> kernels;
    const auto factory =
        [&](const std::vector<int>& levels) -> const DauweKernel& {
      kernels.push_back(
          std::make_unique<const DauweKernel>(sys, levels, model_opt));
      return *kernels.back();
    };
    const auto pruned = optimize_intervals_staged(factory, sys, opts);
    check_result(pruned, sys, lattice, trial);
    EXPECT_EQ(pruned.plan.tau0, generic.plan.tau0) << "trial " << trial;
    EXPECT_EQ(pruned.plan.counts, generic.plan.counts) << "trial " << trial;
    EXPECT_EQ(pruned.expected_time, generic.expected_time)
        << "trial " << trial;
    bound_cuts += pruned.pruned_bound;
  }
  // Across 40 random configurations the bound must fire somewhere.
  EXPECT_GT(bound_cuts, 0u);
}

}  // namespace
}  // namespace mlck::core
