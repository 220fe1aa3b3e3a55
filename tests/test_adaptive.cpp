#include <gtest/gtest.h>

#include <cmath>

#include "core/adaptive.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/scaling.h"
#include "systems/test_systems.h"

namespace mlck::core {
namespace {

TEST(Adaptive, CutoffsAreTheLevelYoungIntervals) {
  const auto sys = systems::table1_system("D1");
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {3});
  const auto adaptive = make_adaptive(sys, plan);
  ASSERT_EQ(adaptive.cutoff_remaining.size(), 2u);
  EXPECT_NEAR(adaptive.cutoff_remaining[0],
              std::sqrt(2.0 * 0.333 / sys.lambda(0)), 1e-9);
  EXPECT_NEAR(adaptive.cutoff_remaining[1],
              std::sqrt(2.0 * 0.833 / sys.lambda(1)), 1e-9);
}

TEST(Adaptive, EarlyRunFollowsTheBasePattern) {
  const auto sys = systems::table1_system("D1");  // T_B = 1440
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {3});
  const auto adaptive = make_adaptive(sys, plan);
  // Far from the end every pattern point keeps its level.
  for (long long j = 1; j <= 8; ++j) {
    const auto next = adaptive.next_checkpoint(5.0 * double(j - 1));
    ASSERT_TRUE(next.has_value());
    EXPECT_DOUBLE_EQ(next->work, 5.0 * double(j));
    EXPECT_EQ(next->used_index, plan.checkpoint_after_interval(j));
  }
}

TEST(Adaptive, TailDowngradesAndThenSkipsCheckpoints) {
  // A synthetic system with an expensive top level and long cutoffs so
  // the tail behaviour is easy to pin down. cutoff_0 = sqrt(2*1/0.01) ~ 14.1,
  // cutoff_1 = sqrt(2*8/0.01) = 40.
  const auto sys = systems::SystemConfig::from_table_row(
      "tail", 2, 50.0, {0.5, 0.5}, {1.0, 8.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {1});
  const auto adaptive = make_adaptive(sys, plan);
  // Pattern points: 10(L0) 20(L1) 30(L0) 40(L1) 50(L0) 60(L1) 70 80 90.
  // Level-1 points with remaining < 40 (i.e. work > 60) downgrade to L0;
  // level-0 points with remaining < ~14.1 (work > 85.9) are skipped.
  EXPECT_EQ(adaptive.next_checkpoint(55.0)->used_index, 1);  // 60: rem 40
  EXPECT_EQ(adaptive.next_checkpoint(75.0)->used_index, 0);  // 80 downgraded
  EXPECT_DOUBLE_EQ(adaptive.next_checkpoint(75.0)->work, 80.0);
  // After 80: the 90 point has remaining 10 < 14.1 -> skipped entirely.
  EXPECT_FALSE(adaptive.next_checkpoint(80.0).has_value());
}

TEST(Adaptive, ShortApplicationTakesNoTopLevelCheckpoints) {
  // The Sec. IV-F scenario expressed adaptively: a 30-minute app on
  // scaled B never reaches the PFS level's horizon.
  const auto sys = systems::scaled_system_b(9.0, 20.0, 30.0);
  const auto plan = CheckpointPlan::full_hierarchy(2.5, {1, 1, 1});
  const auto adaptive = make_adaptive(sys, plan);
  double work = 0.0;
  while (const auto next = adaptive.next_checkpoint(work)) {
    EXPECT_LT(next->used_index, 3) << "at work " << next->work;
    work = next->work;
  }
}

TEST(Adaptive, FailureFreeRunIsNeverSlowerThanStatic) {
  const auto sys = systems::SystemConfig::from_table_row(
      "tail", 2, 50.0, {0.5, 0.5}, {1.0, 8.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {1});
  const auto adaptive = make_adaptive(sys, plan);
  sim::ScriptedFailureSource none_a({});
  sim::ScriptedFailureSource none_b({});
  const auto static_run = sim::simulate(
      sys, sim::CompiledSchedule::from_plan(sys, plan), none_a);
  const auto adaptive_run = sim::simulate(
      sys, sim::CompiledSchedule::from_adaptive(sys, adaptive), none_b);
  EXPECT_LT(adaptive_run.total_time, static_run.total_time);
  EXPECT_LT(adaptive_run.checkpoints_completed,
            static_run.checkpoints_completed);
  EXPECT_DOUBLE_EQ(adaptive_run.breakdown.useful, 100.0);
}

TEST(Adaptive, ImprovesMeanEfficiencyUnderFailures) {
  // Mid-length application where the static optimizer keeps the PFS level
  // but the tail no longer earns it.
  const auto sys = systems::scaled_system_b(15.0, 20.0, 120.0);
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {1, 1, 4});
  const auto adaptive = make_adaptive(sys, plan);
  const auto static_stats = sim::run_trials(sys, plan, 150, 9);
  const auto adaptive_stats = sim::run_trials(
      sys, sim::CompiledSchedule::from_adaptive(sys, adaptive), nullptr, 150,
      9);
  EXPECT_GT(adaptive_stats.efficiency.mean,
            static_stats.efficiency.mean - 0.01);
}

TEST(Adaptive, RunTrialsOverloadWorks) {
  const auto sys = systems::table1_system("D2");
  const auto plan = CheckpointPlan::full_hierarchy(4.0, {2});
  const auto adaptive = make_adaptive(sys, plan);
  const auto stats = sim::run_trials(
      sys, sim::CompiledSchedule::from_adaptive(sys, adaptive), nullptr, 25, 4);
  EXPECT_EQ(stats.trials, 25u);
  EXPECT_GT(stats.efficiency.mean, 0.3);
  EXPECT_NEAR(stats.time_shares.total(), 1.0, 1e-9);
}

TEST(Adaptive, ZeroRateOrFreeLevelsGetZeroCutoff) {
  const auto sys = systems::SystemConfig::from_table_row(
      "free", 2, 1e12, {0.5, 0.5}, {0.0, 1.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {1});
  const auto adaptive = make_adaptive(sys, plan);
  // Free checkpoint -> cutoff 0 (always worth taking).
  EXPECT_DOUBLE_EQ(adaptive.cutoff_remaining[0], 0.0);
}

TEST(Adaptive, SingleLevelSystemKeepsItsOnlyLevelUntilCutoff) {
  // Degenerate hierarchy: one level, one cutoff. cutoff = sqrt(2*2/0.002)
  // ~ 44.7, so points up to work 50 keep level 0 and later ones vanish.
  const auto sys = systems::SystemConfig::from_table_row(
      "solo", 1, 500.0, {1.0}, {2.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {});
  const auto adaptive = make_adaptive(sys, plan);
  ASSERT_EQ(adaptive.cutoff_remaining.size(), 1u);
  EXPECT_NEAR(adaptive.cutoff_remaining[0],
              std::sqrt(2.0 * 2.0 / sys.lambda(0)), 1e-9);
  const auto early = adaptive.next_checkpoint(0.0);
  ASSERT_TRUE(early.has_value());
  EXPECT_DOUBLE_EQ(early->work, 10.0);
  EXPECT_EQ(early->used_index, 0);
  // Remaining at work 60 is 40 < 44.7: every later point is skipped.
  EXPECT_FALSE(adaptive.next_checkpoint(55.0).has_value());
}

TEST(Adaptive, VanishingFailureRateSkipsEveryCheckpoint) {
  // lambda -> 0 limit: the cutoffs sqrt(2*delta/lambda) dwarf T_B, so the
  // schedule degenerates to "never checkpoint" and a failure-free run is
  // pure useful work.
  const auto sys = systems::SystemConfig::from_table_row(
      "calm", 2, 1e15, {0.5, 0.5}, {1.0, 8.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {1});
  const auto adaptive = make_adaptive(sys, plan);
  for (const double cutoff : adaptive.cutoff_remaining) {
    EXPECT_GT(cutoff, sys.base_time);
  }
  EXPECT_FALSE(adaptive.next_checkpoint(0.0).has_value());
  sim::ScriptedFailureSource none({});
  const auto run = sim::simulate(
      sys, sim::CompiledSchedule::from_adaptive(sys, adaptive), none);
  EXPECT_DOUBLE_EQ(run.breakdown.useful, 100.0);
  EXPECT_EQ(run.checkpoints_completed, 0);
  EXPECT_DOUBLE_EQ(run.total_time, 100.0);
}

TEST(Adaptive, FreeLevelIsNeverSkippedEvenAtTheVeryEnd) {
  // Companion to ZeroRateOrFreeLevelsGetZeroCutoff: a zero-cost level's
  // cutoff of 0 means the last pattern point before the end is still
  // worth taking, and expensive levels downgrade onto it.
  const auto sys = systems::SystemConfig::from_table_row(
      "free", 2, 1e12, {0.5, 0.5}, {0.0, 1.0}, 100.0);
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {1});
  const auto adaptive = make_adaptive(sys, plan);
  const auto last = adaptive.next_checkpoint(85.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_DOUBLE_EQ(last->work, 90.0);
  EXPECT_EQ(last->used_index, 0);
  // Level-1 points (work 20, 40, ...) downgrade to the free level rather
  // than paying a cost whose horizon never arrives.
  const auto downgraded = adaptive.next_checkpoint(15.0);
  ASSERT_TRUE(downgraded.has_value());
  EXPECT_DOUBLE_EQ(downgraded->work, 20.0);
  EXPECT_EQ(downgraded->used_index, 0);
}

TEST(Quantiles, TrialStatsCarryDistributionTails) {
  const auto sys = systems::table1_system("D6");
  const auto plan = CheckpointPlan::full_hierarchy(1.5, {4});
  const auto stats = sim::run_trials(sys, plan, 100, 12);
  const auto& q = stats.efficiency_quantiles;
  EXPECT_LE(q.p05, q.p25);
  EXPECT_LE(q.p25, q.median);
  EXPECT_LE(q.median, q.p75);
  EXPECT_LE(q.p75, q.p95);
  EXPECT_GE(q.p05, stats.efficiency.min);
  EXPECT_LE(q.p95, stats.efficiency.max);
  EXPECT_NEAR(q.median, stats.efficiency.mean, 0.05);
}

}  // namespace
}  // namespace mlck::core
