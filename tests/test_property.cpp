#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "models/daly.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"

namespace mlck {
namespace {

using core::CheckpointPlan;
using core::DauweModel;

// ---------------------------------------------------------------------
// Property sweep: on single-level problems the Dauwe recursion and Daly's
// exact closed form model the same stochastic process, across a grid of
// regimes from benign to harsh.
// ---------------------------------------------------------------------

class SingleLevelAgreement
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(SingleLevelAgreement, DauweWithinThreePercentOfDaly) {
  const auto [mtbf, cost, tau] = GetParam();
  const auto sys = systems::SystemConfig::from_table_row(
      "single", 1, mtbf, {1.0}, {cost}, 1000.0);
  const DauweModel model;
  const auto plan = CheckpointPlan::single_level(tau, 0);
  const double ours = model.expected_time(sys, plan);
  const double daly = models::daly_expected_time(1000.0, tau, cost, cost, mtbf);
  EXPECT_NEAR(ours / daly, 1.0, 0.03)
      << "mtbf=" << mtbf << " cost=" << cost << " tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(
    RegimeGrid, SingleLevelAgreement,
    ::testing::Combine(::testing::Values(50.0, 200.0, 1000.0),
                       ::testing::Values(0.5, 2.0, 8.0),
                       ::testing::Values(5.0, 20.0, 80.0)));

// ---------------------------------------------------------------------
// Property sweep: model sanity on every Table I system.
// ---------------------------------------------------------------------

class TableOneProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(TableOneProperties, ModelEfficiencyInUnitInterval) {
  const auto sys = systems::table1_system(GetParam());
  const DauweModel model;
  const auto plan = core::CheckpointPlan::full_hierarchy(
      2.0, std::vector<int>(std::size_t(sys.levels() - 1), 3));
  const auto p = model.predict(sys, plan);
  EXPECT_GT(p.efficiency, 0.0);
  EXPECT_LT(p.efficiency, 1.0);
  EXPECT_GE(p.expected_time, sys.base_time);
}

TEST_P(TableOneProperties, BreakdownComponentsNonNegativeAndComplete) {
  const auto sys = systems::table1_system(GetParam());
  const DauweModel model;
  const auto plan = core::CheckpointPlan::full_hierarchy(
      5.0, std::vector<int>(std::size_t(sys.levels() - 1), 2));
  const auto p = model.predict(sys, plan);
  const auto& b = p.breakdown;
  for (const double v :
       {b.compute, b.checkpoint_ok, b.checkpoint_failed, b.restart_ok,
        b.restart_failed, b.rework_compute, b.rework_checkpoint,
        b.scratch_rework}) {
    EXPECT_GE(v, 0.0);
  }
  EXPECT_NEAR(b.total(), p.expected_time, 1e-9 * p.expected_time);
}

TEST_P(TableOneProperties, SimulatedEfficiencyNeverExceedsOne) {
  const auto sys = systems::table1_system(GetParam());
  const auto plan = core::CheckpointPlan::full_hierarchy(
      2.0, std::vector<int>(std::size_t(sys.levels() - 1), 3));
  const auto stats = sim::run_trials(sys, plan, 10, 42);
  EXPECT_LE(stats.efficiency.max, 1.0);
  EXPECT_GT(stats.efficiency.min, 0.0);
}

TEST_P(TableOneProperties, LongerIntervalsLoseMoreWorkPerFailure) {
  // gamma E(tau) (N+1) grows with tau in the model: lost-work share rises
  // monotonically with the interval on any system.
  const auto sys = systems::table1_system(GetParam());
  const DauweModel model;
  double previous = -1.0;
  for (const double tau : {1.0, 3.0, 9.0, 27.0}) {
    const auto plan = core::CheckpointPlan::full_hierarchy(
        tau, std::vector<int>(std::size_t(sys.levels() - 1), 2));
    const auto p = model.predict(sys, plan);
    if (!std::isfinite(p.expected_time)) break;
    EXPECT_GT(p.breakdown.rework_compute, previous);
    previous = p.breakdown.rework_compute;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, TableOneProperties,
                         ::testing::Values("M", "B", "D1", "D2", "D3", "D4",
                                           "D5", "D6", "D7", "D8", "D9"));

// ---------------------------------------------------------------------
// Property sweep: simulation accounting integrity across policies and
// difficulty levels.
// ---------------------------------------------------------------------

class SimulationIntegrity
    : public ::testing::TestWithParam<
          std::tuple<std::string, sim::RestartPolicy>> {};

TEST_P(SimulationIntegrity, EveryMinuteAccountedFor) {
  const auto [name, policy] = GetParam();
  const auto sys = systems::table1_system(name);
  const auto plan = core::CheckpointPlan::full_hierarchy(
      2.0, std::vector<int>(std::size_t(sys.levels() - 1), 4));
  sim::SimOptions opts;
  opts.restart_policy = policy;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::RandomFailureSource src(
        sys, util::Rng(util::derive_stream_seed(31, seed)));
    const auto r = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), src, opts);
    EXPECT_NEAR(r.breakdown.total(), r.total_time,
                1e-6 * (1.0 + r.total_time));
    if (!r.capped) {
      EXPECT_DOUBLE_EQ(r.breakdown.useful, sys.base_time);
    }
  }
}

TEST_P(SimulationIntegrity, EscalationPolicyNeverBeatsRetryOnAverage) {
  // Escalating to a slower checkpoint level can only cost time in this
  // simulator (same restore points, pricier restarts), so the mean total
  // time under escalation is >= retry up to sampling noise.
  const auto [name, policy] = GetParam();
  if (policy != sim::RestartPolicy::kMoodyEscalate) {
    GTEST_SKIP() << "comparison runs once, on the escalate parameter";
  }
  const auto sys = systems::table1_system(name);
  const auto plan = core::CheckpointPlan::full_hierarchy(
      2.0, std::vector<int>(std::size_t(sys.levels() - 1), 4));
  sim::SimOptions retry, escalate;
  escalate.restart_policy = sim::RestartPolicy::kMoodyEscalate;
  const auto r = sim::run_trials(sys, plan, 80, 7, retry);
  const auto e = sim::run_trials(sys, plan, 80, 7, escalate);
  EXPECT_GE(e.total_time.mean,
            r.total_time.mean - 2.0 * r.total_time.ci95_halfwidth())
      << name;
}

INSTANTIATE_TEST_SUITE_P(
    PolicyGrid, SimulationIntegrity,
    ::testing::Combine(::testing::Values("M", "B", "D2", "D4", "D7", "D9"),
                       ::testing::Values(sim::RestartPolicy::kRetrySameLevel,
                                         sim::RestartPolicy::kMoodyEscalate)));

// ---------------------------------------------------------------------
// Property sweep: the optimizer respects the solution-space bound and
// improves on naive plans everywhere.
// ---------------------------------------------------------------------

class OptimizerProperties : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerProperties, BeatsAFixedNaivePlan) {
  const auto sys = systems::table1_system(GetParam());
  const DauweModel model;
  const auto best = core::optimize_intervals(model, sys);
  const auto naive = core::CheckpointPlan::full_hierarchy(
      10.0, std::vector<int>(std::size_t(sys.levels() - 1), 5));
  EXPECT_LE(best.expected_time,
            model.expected_time(sys, naive) * (1.0 + 1e-9));
  EXPECT_LE(best.plan.work_per_top_period(), sys.base_time);
  EXPECT_GT(best.plan.tau0, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, OptimizerProperties,
                         ::testing::Values("M", "B", "D1", "D3", "D5", "D7",
                                           "D9"));

}  // namespace
}  // namespace mlck
