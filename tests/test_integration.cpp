#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "exp/experiments.h"
#include "exp/report.h"
#include "obs/registry.h"
#include "systems/scaling.h"
#include "systems/test_systems.h"

namespace mlck::exp {
namespace {

using engine::ScenarioOutcome;
using engine::ScenarioSpec;

ScenarioSpec quick_spec(const systems::SystemConfig& system,
                        std::size_t trials = 60) {
  ScenarioSpec spec;
  spec.system = system;
  spec.trials = trials;
  spec.seed = 20180521;  // IPDPSW 2018
  return spec;
}

/// Selects with @p model and validates with the simulator.
ScenarioOutcome evaluate(const std::string& model,
                         const systems::SystemConfig& system,
                         std::size_t trials = 60) {
  ScenarioSpec spec = quick_spec(system, trials);
  spec.model = model;
  return engine::run_scenario(spec);
}

TEST(Integration, DauweModelPredictsItsOwnSimulatedPerformance) {
  // The headline claim: optimizing with the Dauwe model yields plans whose
  // *predicted* efficiency tracks the *simulated* efficiency closely on
  // moderate systems.
  for (const char* name : {"D1", "D3"}) {
    const auto out = evaluate("dauwe", systems::table1_system(name));
    EXPECT_NEAR(out.selected.predicted_efficiency, out.stats.efficiency.mean,
                0.05)
        << name;
    EXPECT_GT(out.stats.efficiency.mean, 0.0);
  }
}

TEST(Integration, DalyPredictionHighlyAccurate) {
  // Sec. IV-C: Daly's equations are highly accurate for traditional C/R.
  const auto out = evaluate("daly", systems::table1_system("D2"));
  EXPECT_NEAR(out.selected.predicted_efficiency, out.stats.efficiency.mean,
              0.04);
}

TEST(Integration, MultilevelBeatsTraditionalOnHardSystems) {
  // Figure 2's first trend: multilevel checkpointing outperforms Daly's
  // single-level C/R, increasingly so on harder systems.
  const auto sys = systems::table1_system("D5");
  const double ml = evaluate("dauwe", sys).stats.efficiency.mean;
  const double sl = evaluate("daly", sys).stats.efficiency.mean;
  EXPECT_GT(ml, sl + 0.03);
}

TEST(Integration, ShortApplicationGainsFromSkippingThePfsLevel) {
  // Figure 5's effect, at one grid point: on a 30-minute application with
  // 20-minute PFS checkpoints, Dauwe (level skipping) beats Moody (always
  // all levels).
  const auto sys = systems::scaled_system_b(9.0, 20.0, 30.0);
  const auto d = evaluate("dauwe", sys, 120);
  const auto m = evaluate("moody", sys, 120);
  EXPECT_LT(d.selected.plan.top_system_level(), 3);
  EXPECT_EQ(m.selected.plan.top_system_level(), 3);
  EXPECT_GT(d.stats.efficiency.mean, m.stats.efficiency.mean);
}

TEST(Integration, RunScenarioCollectsEveryTechnique) {
  const ScenarioResult result = compare_models(
      quick_spec(systems::table1_system("D2"), 20), "D2", kMultilevelModels);
  ASSERT_EQ(result.outcomes.size(), 3u);
  EXPECT_EQ(result.label, "D2");
  for (const auto& o : result.outcomes) {
    EXPECT_GT(o.stats.efficiency.mean, 0.0);
    EXPECT_LE(o.stats.efficiency.max, 1.0);
    EXPECT_GT(o.selected.predicted_efficiency, 0.0);
    EXPECT_EQ(o.stats.trials, 20u);
  }
  EXPECT_EQ(result.outcome("Moody et al.").selected.technique,
            "Moody et al.");
  EXPECT_THROW(result.outcome("nope"), std::out_of_range);
}

TEST(Integration, ScaledGridShapes) {
  const auto grid = scaled_b_grid(1440.0, systems::figure4_pfs_cost_grid());
  EXPECT_EQ(grid.size(), 20u);  // 4 PFS costs x 5 MTBFs
  EXPECT_EQ(grid.front().pfs_cost, 10.0);
  EXPECT_EQ(grid.front().mtbf, 26.0);
  EXPECT_EQ(grid.back().pfs_cost, 40.0);
  EXPECT_EQ(grid.back().mtbf, 3.0);
  for (const auto& sc : grid) {
    EXPECT_NO_THROW(sc.system.validate());
    EXPECT_EQ(sc.system.base_time, 1440.0);
  }
}

TEST(Integration, ReportsRenderAllSections) {
  std::vector<ScenarioResult> rows;
  rows.push_back(compare_models(quick_spec(systems::table1_system("D2"), 10),
                                "D2", kMultilevelModels));

  std::ostringstream eff;
  print_efficiency_table(eff, "Efficiency", rows);
  EXPECT_NE(eff.str().find("Dauwe et al. sim"), std::string::npos);
  EXPECT_NE(eff.str().find("D2"), std::string::npos);
  EXPECT_NE(eff.str().find('%'), std::string::npos);

  std::ostringstream brk;
  print_breakdown_table(brk, "Breakdown", rows);
  EXPECT_NE(brk.str().find("ckpt fail"), std::string::npos);

  std::ostringstream err;
  print_prediction_error_table(err, "Errors", rows, "Moody et al.");
  EXPECT_NE(err.str().find("Moody et al. err"), std::string::npos);

  std::ostringstream csv;
  write_efficiency_csv(csv, rows);
  EXPECT_NE(csv.str().find("sim_efficiency_mean"), std::string::npos);
  EXPECT_NE(csv.str().find("Di et al."), std::string::npos);
}

TEST(Integration, PredictionErrorSignsMatchThePaperOnHardScenarios) {
  // Figure 6: Di et al. over-estimates efficiency, the full Dauwe model
  // stays closer to zero error, on a hard exascale-like scenario.
  const auto sys = systems::scaled_system_b(9.0, 20.0, 1440.0);
  const auto di_out = evaluate("di", sys);
  const auto dauwe_out = evaluate("dauwe", sys);
  EXPECT_GT(di_out.prediction_error(), 0.0);
  EXPECT_LT(std::abs(dauwe_out.prediction_error()),
            std::abs(di_out.prediction_error()) + 0.05);
}

TEST(CompareModels, DauweSelectionUsesTheSpecsFailureLaw) {
  // The spec's law reaches the Dauwe search, not just the simulator: the
  // outcome is bit-equal to the law-aware engine's own optimum, which
  // differs from the exponential plan.
  ScenarioSpec spec = quick_spec(systems::table1_system("B"), 5);
  spec.distribution = engine::DistributionSpec::parse("weibull:shape=0.5");
  const ScenarioResult result = compare_models(spec, "B", kFigure2Models);
  const auto& dauwe = result.outcome("Dauwe et al.").selected;
  const auto expected = spec.make_engine().optimize();
  EXPECT_EQ(dauwe.plan.tau0, expected.plan.tau0);
  EXPECT_EQ(dauwe.plan.levels, expected.plan.levels);
  EXPECT_EQ(dauwe.plan.counts, expected.plan.counts);
  EXPECT_EQ(dauwe.predicted_time, expected.expected_time);

  spec.distribution = {};
  const auto exponential = spec.make_engine().optimize();
  EXPECT_NE(dauwe.plan.tau0, exponential.plan.tau0);
}

TEST(CompareModels, RegistryCountsTheOptimizerAndEveryTrial) {
  const ScenarioSpec spec = quick_spec(systems::table1_system("D3"), 7);
  obs::MetricsRegistry registry;
  util::ThreadPool pool(2);
  const ScenarioResult result =
      compare_models(spec, "D3", kMultilevelModels, &pool, &registry);
  EXPECT_GT(registry.counter("optimizer.subsets_searched").value(), 0u);
  EXPECT_GT(registry.counter("optimizer.plans_swept").value(), 0u);
  EXPECT_EQ(registry.counter("sim.trials").value(),
            kMultilevelModels.size() * spec.trials);
  EXPECT_EQ(result.outcomes.size(), kMultilevelModels.size());
}

}  // namespace
}  // namespace mlck::exp
