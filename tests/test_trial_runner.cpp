#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "math/failure_law.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"

namespace mlck::sim {
namespace {

using core::CheckpointPlan;

TEST(TrialRunner, ReproducibleForEqualSeeds) {
  const auto sys = systems::table1_system("D2");
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {4});
  const TrialStats a = run_trials(sys, plan, 40, 777);
  const TrialStats b = run_trials(sys, plan, 40, 777);
  EXPECT_DOUBLE_EQ(a.efficiency.mean, b.efficiency.mean);
  EXPECT_DOUBLE_EQ(a.efficiency.stddev, b.efficiency.stddev);
  EXPECT_DOUBLE_EQ(a.total_time.mean, b.total_time.mean);
  EXPECT_DOUBLE_EQ(a.mean_failures, b.mean_failures);
}

TEST(TrialRunner, DifferentSeedsDiffer) {
  const auto sys = systems::table1_system("D2");
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {4});
  const TrialStats a = run_trials(sys, plan, 40, 777);
  const TrialStats b = run_trials(sys, plan, 40, 778);
  EXPECT_NE(a.efficiency.mean, b.efficiency.mean);
}

TEST(TrialRunner, PoolAndSerialExecutionAgreeExactly) {
  const auto sys = systems::table1_system("D3");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {5});
  const TrialStats serial = run_trials(sys, plan, 32, 99, {}, nullptr);
  util::ThreadPool pool(4);
  const TrialStats pooled = run_trials(sys, plan, 32, 99, {}, &pool);
  EXPECT_DOUBLE_EQ(serial.efficiency.mean, pooled.efficiency.mean);
  EXPECT_DOUBLE_EQ(serial.efficiency.stddev, pooled.efficiency.stddev);
  EXPECT_DOUBLE_EQ(serial.time_shares.useful, pooled.time_shares.useful);

  // Interval and adaptive schedules under renewal laws, bit for bit.
  const auto weibull = math::FailureLaw::weibull(0.7);
  const auto lognormal = math::FailureLaw::lognormal(1.0);
  const CompiledSchedule schedules[] = {
      CompiledSchedule::from_schedule(
          sys, core::IntervalSchedule{{0, 1}, {2.0, 7.5}}),
      CompiledSchedule::from_adaptive(sys, core::make_adaptive(sys, plan))};
  for (const auto& schedule : schedules) {
    for (const auto* family : {weibull.get(), lognormal.get()}) {
      const auto law = family->distribution(sys.mtbf);
      SCOPED_TRACE(law->describe());
      const TrialStats s = run_trials(sys, schedule, law.get(), 32, 99);
      const TrialStats p =
          run_trials(sys, schedule, law.get(), 32, 99, {}, &pool);
      EXPECT_EQ(s.efficiency.mean, p.efficiency.mean);
      EXPECT_EQ(s.efficiency.stddev, p.efficiency.stddev);
      EXPECT_EQ(s.total_time.mean, p.total_time.mean);
      EXPECT_EQ(s.mean_failures, p.mean_failures);
      EXPECT_EQ(s.capped_trials, p.capped_trials);
      EXPECT_EQ(s.time_shares.useful, p.time_shares.useful);
      EXPECT_EQ(s.time_shares.restart_failed, p.time_shares.restart_failed);
      EXPECT_EQ(s.time_shares.rework_restart, p.time_shares.rework_restart);
    }
  }
}

TEST(TrialRunner, TimeSharesNormalizedToOne) {
  const auto sys = systems::table1_system("D6");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {4});
  const TrialStats stats = run_trials(sys, plan, 50, 5);
  EXPECT_NEAR(stats.time_shares.total(), 1.0, 1e-9);
  EXPECT_GT(stats.time_shares.useful, 0.0);
  EXPECT_GT(stats.time_shares.checkpoint_ok, 0.0);
}

TEST(TrialRunner, SummariesCarrySampleCount) {
  const auto sys = systems::table1_system("D1");
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {3});
  const TrialStats stats = run_trials(sys, plan, 25, 1);
  EXPECT_EQ(stats.trials, 25u);
  EXPECT_EQ(stats.efficiency.count, 25u);
  EXPECT_GT(stats.efficiency.mean, 0.0);
  EXPECT_LE(stats.efficiency.max, 1.0);
  EXPECT_GT(stats.mean_failures, 1.0);  // MTBF 51 min, T_B 1440 min
}

TEST(TrialRunner, CapsHopelessRuns) {
  const auto sys = systems::SystemConfig::from_table_row(
      "doom", 1, 0.05, {1.0}, {20.0}, 50.0);
  const auto plan = CheckpointPlan::single_level(1.0, 0);
  SimOptions opts;
  opts.max_time_factor = 20.0;
  const TrialStats stats = run_trials(sys, plan, 8, 3, opts);
  EXPECT_EQ(stats.capped_trials, 8u);
  EXPECT_LT(stats.efficiency.mean, 0.05);
}

TEST(TrialRunner, NoCappedTrialExceedsTheCap) {
  // Regression: capped trials used to overshoot the cap by up to one
  // phase; total_time must now respect max_time_factor * base_time.
  const auto sys = systems::SystemConfig::from_table_row(
      "doom", 1, 0.05, {1.0}, {20.0}, 50.0);
  const auto plan = CheckpointPlan::single_level(1.0, 0);
  SimOptions opts;
  opts.max_time_factor = 20.0;
  const double cap = opts.max_time_factor * sys.base_time;
  const TrialStats stats = run_trials(sys, plan, 64, 3, opts);
  EXPECT_EQ(stats.capped_trials, 64u);
  // All trials capped => every per-trial total_time is exactly the cap.
  EXPECT_DOUBLE_EQ(stats.total_time.max, cap);
  EXPECT_DOUBLE_EQ(stats.total_time.min, cap);
}

TEST(TrialRunner, ThrowingTrialBodySurfacesAsException) {
  // Regression: an exception inside a pooled trial used to escape the
  // worker thread and call std::terminate. plan.validate() runs inside
  // each trial, so an invalid plan exercises exactly that path.
  const auto sys = systems::table1_system("D2");
  CheckpointPlan bad = CheckpointPlan::full_hierarchy(3.0, {4});
  bad.tau0 = -1.0;  // validate() throws std::invalid_argument
  util::ThreadPool pool(4);
  EXPECT_THROW(run_trials(sys, bad, 16, 1, {}, &pool),
               std::invalid_argument);
  // The pool survived; a well-formed batch still runs on it.
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {4});
  const TrialStats pooled = run_trials(sys, plan, 16, 1, {}, &pool);
  const TrialStats serial = run_trials(sys, plan, 16, 1, {}, nullptr);
  EXPECT_DOUBLE_EQ(pooled.efficiency.mean, serial.efficiency.mean);
}

TEST(TrialRunner, EfficiencyVarianceShrinksForEasierSystems) {
  const auto plan = CheckpointPlan::full_hierarchy(10.0, {4});
  const auto easy = systems::table1_system("D1");   // MTBF 51.42
  const auto hard = systems::table1_system("D4");   // MTBF 6
  const TrialStats e = run_trials(easy, plan, 60, 11);
  const TrialStats h = run_trials(hard, plan, 60, 11);
  EXPECT_GT(e.efficiency.mean, h.efficiency.mean);
}

}  // namespace
}  // namespace mlck::sim
