#include <gtest/gtest.h>

#include <cmath>

#include "core/plan.h"
#include "sim/simulator.h"
#include "systems/test_systems.h"
#include "util/rng.h"

namespace mlck::sim {
namespace {

using core::CheckpointPlan;
using Script = std::vector<ScriptedFailureSource::AbsoluteFailure>;

systems::SystemConfig toy_system() {
  // 2 levels, delta = R = {1, 4}, T_B = 30.
  return systems::SystemConfig::from_table_row("toy", 2, 100.0, {0.8, 0.2},
                                               {1.0, 4.0}, 30.0);
}

CheckpointPlan toy_plan() {
  // tau0 = 5, two level-1 checkpoints before each level-2 checkpoint.
  return CheckpointPlan::full_hierarchy(5.0, {2});
}

TrialResult run_script(Script script, const SimOptions& options = {}) {
  const auto sys = toy_system();
  const auto plan = toy_plan();
  ScriptedFailureSource src(std::move(script));
  return simulate(sys, CompiledSchedule::from_plan(sys, plan), src, options);
}

void expect_accounting_consistent(const TrialResult& r) {
  EXPECT_NEAR(r.breakdown.total(), r.total_time,
              1e-9 * (1.0 + r.total_time));
}

TEST(Simulator, FailureFreeRunFollowsThePattern) {
  const TrialResult r = run_script({});
  // 6 intervals of 5; checkpoints after j=1..5: levels 0,0,1,0,0 -> cost
  // 1+1+4+1+1 = 8; no checkpoint after the final interval.
  EXPECT_FALSE(r.capped);
  EXPECT_DOUBLE_EQ(r.total_time, 38.0);
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 30.0);
  EXPECT_DOUBLE_EQ(r.breakdown.checkpoint_ok, 8.0);
  EXPECT_EQ(r.checkpoints_completed, 5);
  EXPECT_EQ(r.failures, 0);
  EXPECT_NEAR(r.efficiency(), 30.0 / 38.0, 1e-12);
  expect_accounting_consistent(r);
}

TEST(Simulator, PartialFinalIntervalEndsTheRun) {
  auto sys = toy_system();
  sys.base_time = 12.0;  // intervals 5, 5, 2
  const auto plan = toy_plan();
  ScriptedFailureSource src({});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src);
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 12.0);
  EXPECT_EQ(r.checkpoints_completed, 2);  // after j=1 and j=2 only
  EXPECT_DOUBLE_EQ(r.total_time, 14.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, EarlyFailureBeforeAnyCheckpointRestartsFromScratch) {
  const TrialResult r = run_script({{2.5, 0}});
  EXPECT_EQ(r.failures, 1);
  EXPECT_EQ(r.scratch_restarts, 1);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_compute, 2.5);
  EXPECT_DOUBLE_EQ(r.total_time, 2.5 + 38.0);
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 30.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, FailureDuringCheckpointChargesPartialCheckpointTime) {
  // First level-1 checkpoint runs over [5, 6); failure at 5.5.
  const TrialResult r = run_script({{5.5, 0}});
  EXPECT_DOUBLE_EQ(r.breakdown.checkpoint_failed, 0.5);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_checkpoint, 5.0);  // interval 1 lost
  EXPECT_EQ(r.scratch_restarts, 1);  // nothing checkpointed yet
  EXPECT_DOUBLE_EQ(r.total_time, 5.5 + 38.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, SeverityZeroRestartsFromLocalCheckpoint) {
  // Level-0 checkpoint valid at t=6 (work 5); failure at t=7.
  const TrialResult r = run_script({{7.0, 0}});
  EXPECT_EQ(r.restarts_completed, 1);
  EXPECT_DOUBLE_EQ(r.breakdown.restart_ok, 1.0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_compute, 1.0);  // 1 min past ckpt
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 30.0);
  // t=8 after restart; remaining 25 min work + 7 min checkpoints.
  EXPECT_DOUBLE_EQ(r.total_time, 40.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, HighSeverityFailureDestroysLowerLevelCheckpoints) {
  // Severity-1 failure at t=7: the level-0 checkpoint from t=6 is wiped,
  // no level-1 checkpoint exists yet -> scratch restart.
  const TrialResult r = run_script({{7.0, 1}});
  EXPECT_EQ(r.scratch_restarts, 1);
  EXPECT_EQ(r.restarts_completed, 0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_compute, 6.0);
  EXPECT_DOUBLE_EQ(r.total_time, 7.0 + 38.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, FailedRestartRetriesSameLevelByDefault) {
  // Restart of level 0 begins at t=7; a second severity-0 failure at 7.5
  // interrupts it; the checkpoint survives and the restart retries.
  const TrialResult r = run_script({{7.0, 0}, {7.5, 0}});
  EXPECT_EQ(r.restarts_failed, 1);
  EXPECT_EQ(r.restarts_completed, 1);
  EXPECT_DOUBLE_EQ(r.breakdown.restart_failed, 0.5);
  EXPECT_DOUBLE_EQ(r.breakdown.restart_ok, 1.0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_restart, 0.0);  // same restore point
  EXPECT_DOUBLE_EQ(r.total_time, 40.5);
  expect_accounting_consistent(r);
}

TEST(Simulator, HigherSeverityFailureDuringRestartEscalatesTarget) {
  // While restarting from level 0, a severity-1 failure destroys that
  // checkpoint; no level-1 checkpoint exists -> scratch, losing the
  // restore point's 5 minutes of work too.
  const TrialResult r = run_script({{7.0, 0}, {7.5, 1}});
  EXPECT_EQ(r.restarts_failed, 1);
  EXPECT_EQ(r.scratch_restarts, 1);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_compute, 1.0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_restart, 5.0);
  EXPECT_DOUBLE_EQ(r.total_time, 7.5 + 38.0);
  expect_accounting_consistent(r);
}

TEST(Simulator, MoodyPolicyEscalatesOnSameSeverityRestartFailure) {
  // Both checkpoint levels hold work=15 after the level-2 checkpoint
  // completes at t=21. A severity-0 failure at t=22, then a second
  // severity-0 failure at t=22.5 during the level-0 restart.
  SimOptions moody;
  moody.restart_policy = RestartPolicy::kMoodyEscalate;
  const TrialResult escalated = run_script({{22.0, 0}, {22.5, 0}}, moody);
  const TrialResult retried = run_script({{22.0, 0}, {22.5, 0}});
  // Escalation loads the level-1 checkpoint (R=4) instead of retrying the
  // level-0 one (R=1): 3 minutes slower, same restore point.
  EXPECT_DOUBLE_EQ(escalated.breakdown.restart_ok, 4.0);
  EXPECT_DOUBLE_EQ(retried.breakdown.restart_ok, 1.0);
  EXPECT_DOUBLE_EQ(escalated.total_time, retried.total_time + 3.0);
  EXPECT_DOUBLE_EQ(escalated.breakdown.rework_restart, 0.0);
  expect_accounting_consistent(escalated);
}

TEST(Simulator, MoodyPolicyRetriesAtTopLevel) {
  // Single-level plan: the top level has nowhere to escalate; a repeated
  // same-severity failure retries.
  auto sys = toy_system();
  const auto plan = CheckpointPlan::single_level(5.0, 1);
  SimOptions moody;
  moody.restart_policy = RestartPolicy::kMoodyEscalate;
  // Level-1 checkpoint completes at t=9 (5 work + 4 ckpt). Failure at 10,
  // restart [10,14) interrupted at 11 by another severity-1 failure.
  ScriptedFailureSource src({{10.0, 1}, {11.0, 1}});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src, moody);
  EXPECT_EQ(r.restarts_failed, 1);
  EXPECT_EQ(r.restarts_completed, 1);
  EXPECT_EQ(r.scratch_restarts, 0);
  expect_accounting_consistent(r);
}

TEST(Simulator, LowerSeverityDuringRestartRetriesUnderBothPolicies) {
  // Severity-1 failure at t=22 -> level-1 restart (R=4) over [22,26);
  // a severity-0 failure at 23 must retry level 1 under both policies.
  for (const auto policy :
       {RestartPolicy::kRetrySameLevel, RestartPolicy::kMoodyEscalate}) {
    SimOptions opts;
    opts.restart_policy = policy;
    const TrialResult r = run_script({{22.0, 1}, {23.0, 0}}, opts);
    EXPECT_EQ(r.restarts_failed, 1);
    EXPECT_EQ(r.restarts_completed, 1);
    EXPECT_DOUBLE_EQ(r.breakdown.restart_ok, 4.0);
    EXPECT_DOUBLE_EQ(r.breakdown.restart_failed, 1.0);
    expect_accounting_consistent(r);
  }
}

TEST(Simulator, FailureExactlyAtPhaseBoundaryHitsTheNextPhase) {
  // Failure stamped at t=5.0: the interval [0,5] completes; the failure
  // interrupts the checkpoint at its very start (zero elapsed).
  const TrialResult r = run_script({{5.0, 0}});
  EXPECT_DOUBLE_EQ(r.breakdown.checkpoint_failed, 0.0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_checkpoint, 5.0);
  EXPECT_EQ(r.scratch_restarts, 1);
  expect_accounting_consistent(r);
}

TEST(Simulator, FinalCheckpointOption) {
  auto sys = toy_system();
  sys.base_time = 10.0;
  const auto plan = CheckpointPlan::single_level(5.0, 1);
  SimOptions opts;
  opts.take_final_checkpoint = true;
  ScriptedFailureSource with({});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), with, opts);
  EXPECT_EQ(r.checkpoints_completed, 2);
  EXPECT_DOUBLE_EQ(r.total_time, 10.0 + 8.0);

  ScriptedFailureSource without({});
  const TrialResult r2 = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), without);
  EXPECT_EQ(r2.checkpoints_completed, 1);
  EXPECT_DOUBLE_EQ(r2.total_time, 10.0 + 4.0);
}

TEST(Simulator, HopelessSystemHitsTheTimeCap) {
  // MTBF far below the restart time: the first failure can never be
  // recovered from; the trial must cap out, not spin forever.
  auto sys = systems::SystemConfig::from_table_row(
      "doom", 1, 0.1, {1.0}, {10.0}, 100.0);
  const auto plan = CheckpointPlan::single_level(1.0, 0);
  SimOptions opts;
  opts.max_time_factor = 10.0;
  RandomFailureSource src(sys, util::Rng(1234));
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src, opts);
  EXPECT_TRUE(r.capped);
  EXPECT_GE(r.total_time, 1000.0);
  EXPECT_LT(r.efficiency(), 0.05);
}

TEST(Simulator, CappedTrialClampsAtExactlyTheCap) {
  // Regression: the cap used to be checked only between phases, so a
  // capped trial could overshoot by up to one phase (or one failure gap).
  auto sys = systems::SystemConfig::from_table_row(
      "doom", 1, 0.1, {1.0}, {10.0}, 100.0);
  const auto plan = CheckpointPlan::single_level(1.0, 0);
  SimOptions opts;
  opts.max_time_factor = 10.0;
  const double cap = opts.max_time_factor * sys.base_time;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomFailureSource src(sys,
                            util::Rng(util::derive_stream_seed(9, seed)));
    const TrialResult r = simulate(
        sys, CompiledSchedule::from_plan(sys, plan), src, opts);
    ASSERT_TRUE(r.capped);
    EXPECT_DOUBLE_EQ(r.total_time, cap);
    expect_accounting_consistent(r);
  }
}

TEST(Simulator, CapTruncationAttributionIsDeterministic) {
  // Toy system, cap mid-way through the second compute interval: the
  // truncated segment counts as useful work (it was performed and never
  // lost), and the clock stops exactly at the cap.
  auto sys = toy_system();
  const auto plan = toy_plan();
  SimOptions opts;
  opts.max_time_factor = 7.5 / sys.base_time;  // cap at t = 7.5
  ScriptedFailureSource src({});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src, opts);
  EXPECT_TRUE(r.capped);
  EXPECT_DOUBLE_EQ(r.total_time, 7.5);
  // [0,5) compute, [5,6) level-1 checkpoint, [6,7.5) truncated compute.
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 6.5);
  EXPECT_DOUBLE_EQ(r.breakdown.checkpoint_ok, 1.0);
  EXPECT_EQ(r.failures, 0);  // truncation is not a failure event
  expect_accounting_consistent(r);
}

TEST(Simulator, CapDuringCheckpointChargesTheFailedBucket) {
  // Cap at t = 5.5, halfway through the first checkpoint: the truncated
  // checkpoint time goes to checkpoint_failed without counting a failure.
  auto sys = toy_system();
  const auto plan = toy_plan();
  SimOptions opts;
  opts.max_time_factor = 5.5 / sys.base_time;
  ScriptedFailureSource src({});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src, opts);
  EXPECT_TRUE(r.capped);
  EXPECT_DOUBLE_EQ(r.total_time, 5.5);
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 5.0);
  EXPECT_DOUBLE_EQ(r.breakdown.checkpoint_failed, 0.5);
  EXPECT_EQ(r.failures, 0);
  EXPECT_EQ(r.checkpoints_completed, 0);
  expect_accounting_consistent(r);
}

TEST(Simulator, RandomRunAccountingAlwaysBalances) {
  const auto sys = systems::table1_system("D4");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {4});
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RandomFailureSource src(sys, util::Rng(util::derive_stream_seed(7, seed)));
    const TrialResult r = simulate(
        sys, CompiledSchedule::from_plan(sys, plan), src);
    EXPECT_FALSE(r.capped);
    EXPECT_NEAR(r.breakdown.total(), r.total_time, 1e-6 * r.total_time);
    EXPECT_DOUBLE_EQ(r.breakdown.useful, sys.base_time);
    EXPECT_GT(r.failures, 0);
    EXPECT_LE(r.efficiency(), 1.0);
  }
}

TEST(Simulator, RestartCostsComeFromTheRestartVectorNotCheckpoint) {
  auto sys = toy_system();
  sys.restart_cost = {0.5, 2.0};  // decouple from checkpoint costs
  const auto plan = toy_plan();
  ScriptedFailureSource src({{7.0, 0}});
  const TrialResult r = simulate(
      sys, CompiledSchedule::from_plan(sys, plan), src);
  EXPECT_DOUBLE_EQ(r.breakdown.restart_ok, 0.5);
  expect_accounting_consistent(r);
}

TEST(Simulator, ScratchRestartWipesAllCheckpointSlots) {
  // After a scratch restart the old level-1 checkpoint must not be
  // reusable. Severity-1 failure at 22 (level-1 ckpt holds work 15),
  // then during the level-1 restart another severity-1 failure at 23,
  // destroying... nothing below 1 except level 0; level-1 data survives
  // and the restart retries. Contrast with a severity-1 failure while
  // *no* level-1 data exists (t=7): scratch, and a later severity-0
  // failure at t=7+2.5 (=9.5 wall clock, 2.5 into the rerun) must again
  // find no checkpoint (the rerun has not checkpointed yet).
  const TrialResult r = run_script({{7.0, 1}, {9.5, 0}});
  EXPECT_EQ(r.scratch_restarts, 2);
  EXPECT_EQ(r.restarts_completed, 0);
  expect_accounting_consistent(r);
}

}  // namespace
}  // namespace mlck::sim
