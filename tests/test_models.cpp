#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/dauwe_model.h"
#include "engine/scenario.h"
#include "exp/experiments.h"
#include "models/benoit.h"
#include "models/daly.h"
#include "models/di.h"
#include "models/registry.h"
#include "models/young.h"
#include "systems/test_systems.h"

namespace mlck::models {
namespace {

using core::CheckpointPlan;

TEST(Young, IntervalFormula) {
  EXPECT_DOUBLE_EQ(young_optimal_interval(2.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(young_optimal_interval(0.5, 400.0), 20.0);
}

TEST(Young, FirstOrderModelShape) {
  // h = delta/tau + lambda (tau/2 + R).
  const double t = young_expected_time(1000.0, 20.0, 2.0, 3.0, 100.0);
  EXPECT_NEAR(t, 1000.0 * (1.0 + 0.1 + 0.01 * 13.0), 1e-9);
}

TEST(Daly, ExpectedTimeReducesToCheckpointOverheadWithoutFailures) {
  // M -> infinity: T -> T_B (1 + delta/tau).
  const double t = daly_expected_time(1000.0, 20.0, 2.0, 3.0, 1e12);
  EXPECT_NEAR(t, 1000.0 * 1.1, 1e-3);
}

TEST(Daly, ExpectedTimeMonotoneInRestartAndCheckpointCosts) {
  const double base = daly_expected_time(1000.0, 20.0, 2.0, 3.0, 50.0);
  EXPECT_GT(daly_expected_time(1000.0, 20.0, 2.0, 9.0, 50.0), base);
  EXPECT_GT(daly_expected_time(1000.0, 20.0, 6.0, 3.0, 50.0), base);
  EXPECT_GT(daly_expected_time(1000.0, 20.0, 2.0, 3.0, 25.0), base);
}

TEST(Daly, OptimalIntervalMinimizesTheExactFormula) {
  const double delta = 5.0, restart = 5.0, mtbf = 500.0;
  const double tau_star = daly_optimal_interval(delta, mtbf);
  const double at_star =
      daly_expected_time(1000.0, tau_star, delta, restart, mtbf);
  double best = std::numeric_limits<double>::infinity();
  for (double tau = 1.0; tau < 400.0; tau += 0.25) {
    best = std::min(best,
                    daly_expected_time(1000.0, tau, delta, restart, mtbf));
  }
  EXPECT_NEAR(at_star / best, 1.0, 0.002);
}

TEST(Daly, HighFailureRegimeClampsIntervalToMtbf) {
  EXPECT_DOUBLE_EQ(daly_optimal_interval(10.0, 4.0), 4.0);
}

TEST(DalyModel, RejectsMultilevelPlans) {
  const auto sys = systems::table1_system("D1");
  const DalyModel model;
  const auto multi = CheckpointPlan::full_hierarchy(5.0, {3});
  EXPECT_TRUE(std::isinf(model.expected_time(sys, multi)));
  const auto single = CheckpointPlan::single_level(5.0, 1);
  EXPECT_TRUE(std::isfinite(model.expected_time(sys, single)));
}

TEST(DalyTechnique, UsesThePfsLevelOnly) {
  const auto sys = systems::table1_system("B");
  const DalyTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  EXPECT_EQ(result.plan.levels, std::vector<int>{3});
  EXPECT_GT(result.predicted_efficiency, 0.0);
  EXPECT_LT(result.predicted_efficiency, 1.0);
  EXPECT_NEAR(result.plan.tau0,
              daly_optimal_interval(2.5, 333.33), 1e-12);
}

TEST(DiModel, EqualsDauweWithFailureTermsDisabled) {
  const auto sys = systems::table1_system("D4");
  const DiModel di;
  const core::DauweModel reference{di_model_options()};
  for (const double tau : {0.5, 2.0, 8.0}) {
    for (const int n : {0, 3, 10}) {
      const auto plan = CheckpointPlan::full_hierarchy(tau, {n});
      EXPECT_DOUBLE_EQ(di.expected_time(sys, plan),
                       reference.expected_time(sys, plan));
    }
  }
}

TEST(DiModel, OptimisticRelativeToFullModel) {
  const auto sys = systems::table1_system("D8");
  const DiModel di;
  const core::DauweModel full;
  const auto plan = CheckpointPlan::full_hierarchy(1.5, {4});
  EXPECT_LT(di.expected_time(sys, plan), full.expected_time(sys, plan));
}

TEST(DiTechnique, UsesTopTwoLevelsOnLargerSystems) {
  const auto sys = systems::table1_system("B");
  const DiTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  // Either both top levels or, if the model prefers, just level L-1.
  const bool two_level = result.plan.levels == std::vector<int>({2, 3});
  const bool penultimate_only = result.plan.levels == std::vector<int>({2});
  EXPECT_TRUE(two_level || penultimate_only) << result.plan.to_string();
}

TEST(DiTechnique, StagedSearchBitMatchesThePerPlanSearchOnAllSystems) {
  // DiTechnique searches DiModel's kernel on the staged path; the
  // per-plan search over DiModel, on the same two restricted candidates,
  // is the exact reference.
  const DiModel model;
  const DiTechnique technique;
  for (const auto& sys : systems::table1_systems()) {
    SCOPED_TRACE(sys.name);
    const int top = sys.levels() - 1;
    const std::vector<std::vector<int>> candidates =
        sys.levels() >= 2 ? std::vector<std::vector<int>>{{top - 1, top},
                                                          {top - 1}}
                          : std::vector<std::vector<int>>{{top}};
    core::OptimizationResult reference;
    reference.expected_time = std::numeric_limits<double>::infinity();
    for (const auto& levels : candidates) {
      core::OptimizerOptions opts;
      opts.restrict_levels = levels;
      const auto result = core::optimize_intervals(model, sys, opts);
      if (result.expected_time < reference.expected_time) reference = result;
    }
    const auto selected = technique.select_plan(sys);
    EXPECT_EQ(selected.plan.levels, reference.plan.levels);
    EXPECT_EQ(selected.plan.tau0, reference.plan.tau0);
    EXPECT_EQ(selected.plan.counts, reference.plan.counts);
    EXPECT_EQ(selected.predicted_time, reference.expected_time);
    EXPECT_EQ(selected.predicted_efficiency, reference.efficiency);
  }
}

TEST(DiTechnique, UsesBothLevelsOfTwoLevelSystems) {
  const auto sys = systems::table1_system("D2");
  const DiTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  EXPECT_EQ(result.plan.levels, (std::vector<int>{0, 1}));
  EXPECT_GT(result.predicted_efficiency, 0.0);
}

TEST(Benoit, OptimalFrequencyFormula) {
  EXPECT_DOUBLE_EQ(benoit_optimal_frequency(0.02, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(benoit_optimal_frequency(0.08, 4.0), 0.1);
}

TEST(Benoit, WasteRateMatchesHandComputation) {
  // Single level: H = delta/tau + lambda (tau/2 + R).
  const auto sys = systems::SystemConfig::from_table_row(
      "single", 1, 100.0, {1.0}, {2.0}, 1000.0);
  const auto plan = CheckpointPlan::single_level(20.0, 0);
  EXPECT_NEAR(benoit_waste_rate(sys, plan),
              2.0 / 20.0 + 0.01 * (10.0 + 2.0), 1e-12);
  EXPECT_NEAR(BenoitModel{}.expected_time(sys, plan),
              1000.0 * (1.0 + 0.22), 1e-9);
}

TEST(Benoit, ClosedFormFrequencyMinimizesItsOwnWaste) {
  const auto sys = systems::SystemConfig::from_table_row(
      "single", 1, 100.0, {1.0}, {2.0}, 1000.0);
  const double x_star = benoit_optimal_frequency(0.01, 2.0);
  const double h_star =
      benoit_waste_rate(sys, CheckpointPlan::single_level(1.0 / x_star, 0));
  for (const double factor : {0.5, 0.8, 1.25, 2.0}) {
    const auto plan =
        CheckpointPlan::single_level(1.0 / (x_star * factor), 0);
    EXPECT_GE(benoit_waste_rate(sys, plan), h_star - 1e-12);
  }
  // H* = sqrt(2 lambda delta) + lambda R at the relaxed optimum.
  EXPECT_NEAR(h_star, std::sqrt(2.0 * 0.01 * 2.0) + 0.01 * 2.0, 1e-12);
}

TEST(BenoitTechnique, BuildsNestedPatternOverAllLevels) {
  const auto sys = systems::table1_system("M");
  const BenoitTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  EXPECT_EQ(result.plan.levels, (std::vector<int>{0, 1, 2}));
  EXPECT_NO_THROW(result.plan.validate(sys));
  // The relaxed level-1 interval for M is sqrt(2 delta_1 / lambda_1)
  // ~ 36.6 minutes.
  EXPECT_NEAR(result.plan.tau0, 36.6, 2.0);
  EXPECT_GT(result.predicted_efficiency, 0.9);  // M is easy
}

TEST(BenoitTechnique, PredictionIsOptimisticOnHarshSystems) {
  // Its own first-order forecast of its plan must exceed what the full
  // Dauwe model forecasts for that same plan (it ignores failed C/R).
  const auto sys = systems::table1_system("D8");
  const BenoitTechnique technique;
  const auto result = technique.select_plan(sys, nullptr);
  const core::DauweModel full;
  const double full_eff =
      sys.base_time / full.expected_time(sys, result.plan);
  EXPECT_GT(result.predicted_efficiency, full_eff);
}

TEST(Registry, FigureTwoLineupAndNames) {
  // The lineups are model names for engine::select_plan, in the paper's
  // legend order; each resolves to the technique the legend names.
  ASSERT_EQ(exp::kFigure2Models.size(), 5u);
  engine::ScenarioSpec spec;
  spec.system = systems::table1_system("D1");
  const char* const legend[] = {"Dauwe et al.", "Di et al.", "Moody et al.",
                                "Benoit et al.", "Daly"};
  for (std::size_t i = 0; i < exp::kFigure2Models.size(); ++i) {
    spec.model = exp::kFigure2Models[i];
    EXPECT_EQ(engine::select_plan(spec).technique, legend[i]);
  }
  EXPECT_EQ(exp::kMultilevelModels,
            std::vector<std::string>(exp::kFigure2Models.begin(),
                                     exp::kFigure2Models.begin() + 3));
}

TEST(Registry, MakeTechniqueByName) {
  // The registry holds the baselines only; "dauwe" resolves in
  // engine::select_plan (SelectPlan.ResolvesEveryModelName).
  EXPECT_EQ(make_technique("young")->name(), "Young");
  EXPECT_THROW(make_technique("dauwe"), std::out_of_range);
  EXPECT_THROW(make_technique("unknown"), std::out_of_range);
}

}  // namespace
}  // namespace mlck::models
