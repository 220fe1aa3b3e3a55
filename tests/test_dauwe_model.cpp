#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/dauwe_model.h"
#include "math/exponential.h"
#include "models/daly.h"
#include "sim/simulator.h"
#include "systems/test_systems.h"

namespace mlck::core {
namespace {

systems::SystemConfig toy(double mtbf, std::vector<double> severity,
                          std::vector<double> cost, double base_time) {
  const int levels = static_cast<int>(severity.size());
  return systems::SystemConfig::from_table_row(
      "toy", levels, mtbf, std::move(severity), std::move(cost), base_time);
}

TEST(DauweModel, NoOverheadMeansBaseTimeExactly) {
  // Zero checkpoint cost and (practically) no failures: the hierarchical
  // recursion must telescope to exactly T_B — this pins the paper's
  // ambiguous top-level multiplicity convention (DESIGN.md).
  const auto sys = toy(1e15, {0.6, 0.4}, {0.0, 0.0}, 1000.0);
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {4});
  EXPECT_NEAR(model.expected_time(sys, plan), 1000.0, 1e-6);
}

TEST(DauweModel, FailureFreeRunCostsBaseTimePlusCheckpoints) {
  // T_B = 100, tau0 = 10, pattern {4}: 2 top periods; per period 4
  // standalone level-1 checkpoints; N_L - 1 = 1 level-2 checkpoint (the
  // run ends after the second period instead of checkpointing it, exactly
  // as the simulator behaves).
  const auto sys = toy(1e15, {0.6, 0.4}, {0.25, 1.5}, 100.0);
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {4});
  const double expected = 100.0 + 8 * 0.25 + 1 * 1.5;
  EXPECT_NEAR(model.expected_time(sys, plan), expected, 1e-6);

  const Prediction p = model.predict(sys, plan);
  EXPECT_NEAR(p.breakdown.checkpoint_ok, 8 * 0.25 + 1 * 1.5, 1e-6);
  EXPECT_NEAR(p.breakdown.compute, 100.0, 1e-9);
  EXPECT_NEAR(p.breakdown.restart_ok, 0.0, 1e-9);
  EXPECT_NEAR(p.efficiency, 100.0 / expected, 1e-9);
}

TEST(DauweModel, FailureFreeRunMatchesSimulatorExactly) {
  // With no failures the model and the event simulator describe the same
  // deterministic schedule; totals must agree to round-off.
  // tau0 chosen so T_B is a whole number of pattern periods (the model's
  // N_L is continuous; fractional periods are its only failure-free
  // deviation from the discrete schedule).
  const auto sys = toy(1e15, {0.5, 0.3, 0.2}, {0.25, 1.0, 4.0}, 360.0);
  const DauweModel model;
  struct Case {
    double tau0;
    std::vector<int> counts;
  };
  for (const auto& c : {Case{5.0, {2, 1}},    // period 30, 12 periods
                        Case{4.5, {4, 0}},    // period 22.5, 16 periods
                        Case{5.0, {0, 3}}}) { // period 20, 18 periods
    const auto plan = CheckpointPlan::full_hierarchy(c.tau0, c.counts);
    sim::ScriptedFailureSource no_failures({});
    const auto trial = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), no_failures);
    EXPECT_NEAR(model.expected_time(sys, plan), trial.total_time, 1e-6)
        << plan.to_string();
  }
}

TEST(DauweModel, BreakdownSumsToExpectedTime) {
  const auto sys = systems::table1_system("D3");
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  const Prediction p = model.predict(sys, plan);
  EXPECT_TRUE(std::isfinite(p.expected_time));
  EXPECT_NEAR(p.breakdown.total(), p.expected_time,
              1e-9 * p.expected_time);
  EXPECT_GT(p.breakdown.checkpoint_failed, 0.0);
  EXPECT_GT(p.breakdown.restart_ok, 0.0);
  EXPECT_GT(p.breakdown.rework_compute, 0.0);
}

TEST(DauweModel, InfeasibleWhenPatternExceedsBaseTime) {
  const auto sys = systems::table1_system("D1");
  const DauweModel model;
  // tau0 * (N+1) = 800 * 2 > 1440.
  const auto plan = CheckpointPlan::full_hierarchy(800.0, {1});
  EXPECT_TRUE(std::isinf(model.expected_time(sys, plan)));
  const Prediction p = model.predict(sys, plan);
  EXPECT_EQ(p.efficiency, 0.0);
}

TEST(DauweModel, ExpectedTimeGrowsAsMtbfShrinks) {
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {3});
  double previous = 0.0;
  for (const double mtbf : {200.0, 100.0, 50.0, 25.0, 12.0}) {
    const auto sys = toy(mtbf, {0.8, 0.2}, {0.3, 1.0}, 720.0);
    const double t = model.expected_time(sys, plan);
    EXPECT_GT(t, previous) << "mtbf=" << mtbf;
    previous = t;
  }
}

TEST(DauweModel, ExpectedTimeGrowsWithCheckpointCost) {
  const DauweModel model;
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {3});
  double previous = 0.0;
  for (const double cost : {0.1, 0.5, 1.0, 3.0}) {
    const auto sys = toy(50.0, {0.8, 0.2}, {0.1, cost}, 720.0);
    const double t = model.expected_time(sys, plan);
    EXPECT_GT(t, previous) << "cost=" << cost;
    previous = t;
  }
}

TEST(DauweModel, IgnoringCheckpointFailuresIsOptimistic) {
  const auto sys = systems::table1_system("D8");  // harsh: MTBF ~ delta_2
  const auto plan = CheckpointPlan::full_hierarchy(1.5, {4});
  const DauweModel full;
  DauweOptions no_ck;
  no_ck.checkpoint_failures = false;
  const DauweModel ablated{no_ck};
  EXPECT_LT(ablated.expected_time(sys, plan), full.expected_time(sys, plan));
}

TEST(DauweModel, IgnoringRestartFailuresIsOptimistic) {
  const auto sys = systems::table1_system("D8");
  const auto plan = CheckpointPlan::full_hierarchy(1.5, {4});
  const DauweModel full;
  DauweOptions no_rs;
  no_rs.restart_failures = false;
  const DauweModel ablated{no_rs};
  EXPECT_LT(ablated.expected_time(sys, plan), full.expected_time(sys, plan));
}

TEST(DauweModel, AblationGapGrowsWithDifficulty) {
  // Sec. IV-D: the cost of ignoring failed C/R events grows non-linearly
  // as MTBF approaches the checkpoint/restart times.
  DauweOptions off;
  off.checkpoint_failures = false;
  off.restart_failures = false;
  const DauweModel full, ablated{off};
  const auto plan = CheckpointPlan::full_hierarchy(1.5, {4});
  double previous_gap = 0.0;
  for (const char* name : {"D1", "D3", "D5", "D8"}) {
    const auto sys = systems::table1_system(name);
    const double gap = full.expected_time(sys, plan) /
                       ablated.expected_time(sys, plan);
    EXPECT_GE(gap, previous_gap * 0.999) << name;
    previous_gap = gap;
  }
  EXPECT_GT(previous_gap, 1.05);  // the D8 gap is material
}

TEST(DauweModel, SingleLevelAgreesWithDalyClosedForm) {
  // On a single-level problem the recursion models the same process as
  // Daly's exact formula; they should agree to a few percent.
  const auto sys = toy(100.0, {1.0}, {2.0}, 1000.0);
  const DauweModel model;
  for (const double tau : {10.0, 20.0, 40.0}) {
    const auto plan = CheckpointPlan::single_level(tau, 0);
    const double ours = model.expected_time(sys, plan);
    const double daly =
        models::daly_expected_time(1000.0, tau, 2.0, 2.0, 100.0);
    EXPECT_NEAR(ours / daly, 1.0, 0.02) << "tau=" << tau;
  }
}

TEST(DauweModel, ScratchWrapMatchesRetryAlgebra) {
  // Plan covering only severity 0 of a two-level system: severity-1
  // failures rerun the whole application. The breakdown separates the
  // scratch reruns, so the wrap algebra can be checked self-consistently:
  // scratch_rework == expm1(lambda_1 T') * E(T', lambda_1), where T' is
  // the expected time without the unrecoverable severity.
  const auto sys = toy(50.0, {0.9, 0.1}, {0.2, 5.0}, 200.0);
  const DauweModel model;

  CheckpointPlan covered;
  covered.tau0 = 5.0;
  covered.levels = {0};

  const Prediction p = model.predict(sys, covered);
  ASSERT_TRUE(std::isfinite(p.expected_time));
  EXPECT_GT(p.breakdown.scratch_rework, 0.0);
  const double inner = p.expected_time - p.breakdown.scratch_rework;
  const double lambda1 = sys.lambda(1);
  const double expected_rework =
      std::expm1(lambda1 * inner) * math::truncated_mean(inner, lambda1);
  EXPECT_NEAR(p.breakdown.scratch_rework, expected_rework,
              1e-9 * expected_rework);
  EXPECT_GT(inner, sys.base_time);
}

TEST(DauweModel, SeverityRenormalizationFlagChangesEqnTenWeighting) {
  const auto sys = systems::table1_system("B");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3, 2, 1});
  const DauweModel printed;
  DauweOptions renorm;
  renorm.renormalize_severity_shares = true;
  const DauweModel normalized{renorm};
  const double a = printed.expected_time(sys, plan);
  const double b = normalized.expected_time(sys, plan);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_TRUE(std::isfinite(b));
  EXPECT_NE(a, b);
  // Renormalizing can only increase the per-event weights (divides by a
  // smaller rate sum), so the prediction grows.
  EXPECT_GT(b, a);
}

TEST(DauweModel, HopelessCheckpointGoesInfinite) {
  // Checkpoint 100x the MTBF: essentially never completes; the model must
  // blow up rather than return a finite fantasy.
  const auto sys = toy(1.0, {1.0}, {5000.0}, 100.0);
  const DauweModel model;
  const auto plan = CheckpointPlan::single_level(10.0, 0);
  EXPECT_TRUE(std::isinf(model.expected_time(sys, plan)));
}

TEST(DauweModel, SubsetPlanFeasible) {
  const auto sys = systems::table1_system("B");
  const DauweModel model;
  CheckpointPlan plan;
  plan.tau0 = 3.0;
  plan.levels = {0, 1, 2};  // skip the PFS level
  plan.counts = {2, 2};
  const double t = model.expected_time(sys, plan);
  EXPECT_TRUE(std::isfinite(t));
  EXPECT_GT(t, sys.base_time);
}

}  // namespace
}  // namespace mlck::core
