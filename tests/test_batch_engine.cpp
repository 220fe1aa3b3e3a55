#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "core/interval_schedule.h"
#include "core/optimizer.h"
#include "core/plan.h"
#include "engine/evaluation.h"
#include "math/failure_law.h"
#include "prop_support.h"
#include "sim/compiled_schedule.h"
#include "sim/fast_forward.h"
#include "support/reference_simulator.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// The batch engine's contract (docs/PERFORMANCE.md):
// byte-identical results to the frozen reference engine on equal seeds.
// These tests pin that contract — every comparison below is exact ==,
// never EXPECT_NEAR.

namespace mlck::sim {
namespace {

using core::CheckpointPlan;
using Script = std::vector<ScriptedFailureSource::AbsoluteFailure>;

systems::SystemConfig toy_system() {
  // 2 levels, delta = R = {1, 4}, T_B = 30 (same toy as test_simulator).
  return systems::SystemConfig::from_table_row("toy", 2, 100.0, {0.8, 0.2},
                                               {1.0, 4.0}, 30.0);
}

CheckpointPlan toy_plan() { return CheckpointPlan::full_hierarchy(5.0, {2}); }

void expect_same_result(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.total_time, b.total_time);
  EXPECT_EQ(a.capped, b.capped);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.checkpoints_completed, b.checkpoints_completed);
  EXPECT_EQ(a.restarts_completed, b.restarts_completed);
  EXPECT_EQ(a.restarts_failed, b.restarts_failed);
  EXPECT_EQ(a.scratch_restarts, b.scratch_restarts);
  EXPECT_EQ(a.breakdown.useful, b.breakdown.useful);
  EXPECT_EQ(a.breakdown.checkpoint_ok, b.breakdown.checkpoint_ok);
  EXPECT_EQ(a.breakdown.checkpoint_failed, b.breakdown.checkpoint_failed);
  EXPECT_EQ(a.breakdown.restart_ok, b.breakdown.restart_ok);
  EXPECT_EQ(a.breakdown.restart_failed, b.breakdown.restart_failed);
  EXPECT_EQ(a.breakdown.rework_compute, b.breakdown.rework_compute);
  EXPECT_EQ(a.breakdown.rework_checkpoint, b.breakdown.rework_checkpoint);
  EXPECT_EQ(a.breakdown.rework_restart, b.breakdown.rework_restart);
}

void expect_same_summary(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
}

void expect_same_stats(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.capped_trials, b.capped_trials);
  EXPECT_EQ(a.mean_failures, b.mean_failures);
  expect_same_summary(a.efficiency, b.efficiency);
  expect_same_summary(a.total_time, b.total_time);
  EXPECT_EQ(a.efficiency_quantiles.p05, b.efficiency_quantiles.p05);
  EXPECT_EQ(a.efficiency_quantiles.p25, b.efficiency_quantiles.p25);
  EXPECT_EQ(a.efficiency_quantiles.median, b.efficiency_quantiles.median);
  EXPECT_EQ(a.efficiency_quantiles.p75, b.efficiency_quantiles.p75);
  EXPECT_EQ(a.efficiency_quantiles.p95, b.efficiency_quantiles.p95);
  EXPECT_EQ(a.time_shares.useful, b.time_shares.useful);
  EXPECT_EQ(a.time_shares.checkpoint_ok, b.time_shares.checkpoint_ok);
  EXPECT_EQ(a.time_shares.checkpoint_failed, b.time_shares.checkpoint_failed);
  EXPECT_EQ(a.time_shares.restart_ok, b.time_shares.restart_ok);
  EXPECT_EQ(a.time_shares.restart_failed, b.time_shares.restart_failed);
  EXPECT_EQ(a.time_shares.rework_compute, b.time_shares.rework_compute);
  EXPECT_EQ(a.time_shares.rework_checkpoint, b.time_shares.rework_checkpoint);
  EXPECT_EQ(a.time_shares.rework_restart, b.time_shares.rework_restart);
}

// ---------------------------------------------------------------------------
// CompiledSchedule

TEST(CompiledSchedule, PlanCompilesToItsTriggerSequence) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  ASSERT_TRUE(compiled.compiled());
  // T_B = 30, tau0 = 5: triggers after 5..25 (none at 30, the run ends).
  ASSERT_EQ(compiled.trigger_count(), 5u);
  const auto& trig = compiled.triggers();
  for (std::size_t i = 0; i < trig.size(); ++i) {
    EXPECT_DOUBLE_EQ(trig[i].work, 5.0 * static_cast<double>(i + 1));
  }
  // Pattern {2}: levels 0,0,1 cycling -> trigger 3 (j=3) is the level-1.
  EXPECT_EQ(trig[2].used_index, 1);
  EXPECT_EQ(trig[0].used_index, 0);
}

TEST(CompiledSchedule, CursorRecoversAfterRollback) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  auto cursor = compiled.cursor();
  // Forward path to the end...
  for (int j = 1; j <= 5; ++j) {
    const auto p = cursor.next(5.0 * (j - 1));
    ASSERT_TRUE(p.has_value());
    EXPECT_DOUBLE_EQ(p->work, 5.0 * j);
  }
  EXPECT_FALSE(cursor.next(25.0).has_value());
  // ...then a rollback to scratch and to a mid-run checkpoint: the cursor
  // hint is far ahead, the uniform-grid arithmetic path must recover.
  auto after_scratch = cursor.next(0.0);
  ASSERT_TRUE(after_scratch.has_value());
  EXPECT_DOUBLE_EQ(after_scratch->work, 5.0);
  auto after_restore = cursor.next(15.0);
  ASSERT_TRUE(after_restore.has_value());
  EXPECT_DOUBLE_EQ(after_restore->work, 20.0);
}

TEST(CompiledSchedule, NonUniformGridRollbackUsesBinarySearch) {
  const auto sys = toy_system();
  core::IntervalSchedule schedule;
  schedule.levels = {0, 1};
  schedule.periods = {4.0, 9.0};  // collision-free, non-uniform triggers
  const auto compiled = CompiledSchedule::from_schedule(sys, schedule);
  ASSERT_TRUE(compiled.compiled());
  auto cursor = compiled.cursor();
  // Drain forward, then roll back several positions and re-query each.
  std::vector<core::CheckpointPoint> seen;
  double work = 0.0;
  for (auto p = cursor.next(work); p.has_value(); p = cursor.next(work)) {
    seen.push_back(*p);
    work = p->work;
  }
  ASSERT_GT(seen.size(), 3u);
  for (std::size_t k = seen.size(); k-- > 0;) {
    const double from = k == 0 ? 0.0 : seen[k - 1].work;
    const auto p = cursor.next(from);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->work, seen[k].work);
    EXPECT_EQ(p->used_index, seen[k].used_index);
  }
}

TEST(CompiledSchedule, AdaptiveStaysInCallbackMode) {
  const auto sys = toy_system();
  const auto adaptive = core::make_adaptive(sys, toy_plan());
  const auto compiled = CompiledSchedule::from_adaptive(sys, adaptive);
  EXPECT_FALSE(compiled.compiled());
  EXPECT_EQ(compiled.trigger_count(), 0u);
  // The callback path must serve the schedule's own query sequence.
  auto cursor = compiled.cursor();
  double work = 0.0;
  for (auto expected = adaptive.next_checkpoint(work); expected.has_value();
       expected = adaptive.next_checkpoint(work)) {
    const auto got = cursor.next(work);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->work, expected->work);
    EXPECT_EQ(got->used_index, expected->used_index);
    work = expected->work;
  }
  EXPECT_FALSE(cursor.next(work).has_value());
}

// ---------------------------------------------------------------------------
// NoFailureTrajectory

TEST(FastForward, FullSkipReproducesTheNoFailureTrial) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.valid());
  ScriptedFailureSource none({});
  const TrialResult plain = simulate(sys, compiled, none, options);
  expect_same_result(trajectory.full_result(), plain);
  EXPECT_EQ(trajectory.final_end(), plain.total_time);
  // One full segment per trigger (the tail segment has no checkpoint).
  EXPECT_EQ(trajectory.segment_end().size(), compiled.trigger_count());
}

TEST(FastForward, MidRunJumpMatchesThePlainLoopExactly) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.valid());
  // Sweep a first failure across the whole run — compute phases,
  // checkpoint phases, both severities — plus a second failure so the
  // post-jump state (slots, work, clock) is exercised, not just reported.
  for (double t = 0.25; t < 40.0; t += 0.46875) {
    for (int severity = 0; severity < 2; ++severity) {
      const Script script = {{t, severity}, {t + 7.3, 0}};
      ScriptedFailureSource with_fast(script);
      ScriptedFailureSource without(script);
      const TrialResult fast =
          simulate(sys, compiled, with_fast, options, &trajectory);
      const TrialResult slow = simulate(sys, compiled, without, options);
      SCOPED_TRACE(::testing::Message()
                   << "first failure t=" << t << " severity=" << severity);
      expect_same_result(fast, slow);
    }
  }
}

TEST(FastForward, CapBeforeTheEndInvalidatesTheTrajectory) {
  auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  SimOptions options;
  options.max_time_factor = 1.0;  // cap = T_B < no-failure total time
  const NoFailureTrajectory trajectory(sys, compiled, options);
  EXPECT_FALSE(trajectory.valid());
  EXPECT_FALSE(trajectory.applicable(options));
}

TEST(FastForward, TracingAndOptionMismatchesSuppressTheFastPath) {
  const auto sys = toy_system();
  const auto compiled = CompiledSchedule::from_plan(sys, toy_plan());
  const SimOptions options;
  const NoFailureTrajectory trajectory(sys, compiled, options);
  ASSERT_TRUE(trajectory.applicable(options));
  SimOptions traced = options;
  std::vector<TraceEvent> events;
  traced.trace = &events;
  EXPECT_FALSE(trajectory.applicable(traced));
  SimOptions final_ckpt = options;
  final_ckpt.take_final_checkpoint = true;
  EXPECT_FALSE(trajectory.applicable(final_ckpt));
  SimOptions other_cap = options;
  other_cap.max_time_factor = options.max_time_factor * 2.0;
  EXPECT_FALSE(trajectory.applicable(other_cap));
}

TEST(FastForward, CallbackModeScheduleNeverValidates) {
  const auto sys = toy_system();
  const auto adaptive = core::make_adaptive(sys, toy_plan());
  const auto compiled = CompiledSchedule::from_adaptive(sys, adaptive);
  const NoFailureTrajectory trajectory(sys, compiled, SimOptions{});
  EXPECT_FALSE(trajectory.valid());
}

// ---------------------------------------------------------------------------
// Batch engine vs frozen reference engine

TEST(BatchIdentity, SimulateMatchesReferenceAcrossRandomTrials) {
  const std::uint64_t seed = testprop::suite_seed(0x9b5bull);
  SCOPED_TRACE(testprop::repro(
      "BatchIdentity.SimulateMatchesReferenceAcrossRandomTrials", seed));
  const auto systems = systems::table1_systems();
  for (const auto& sys : systems) {
    const auto plan =
        CheckpointPlan::full_hierarchy(sys.base_time / 96.0,
                                       std::vector<int>(
                                           static_cast<std::size_t>(
                                               sys.levels() - 1),
                                           2));
    for (std::uint64_t k = 0; k < 8; ++k) {
      const std::uint64_t trial_seed = util::derive_stream_seed(seed, k);
      RandomFailureSource a(sys, util::Rng(trial_seed));
      RandomFailureSource b(sys, util::Rng(trial_seed));
      SCOPED_TRACE(::testing::Message() << sys.name << " trial " << k);
      expect_same_result(simulate(sys, plan, a), reference::simulate(sys, plan, b));
    }
  }
}

TEST(BatchIdentity, RunTrialsMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("D3");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {4});
  const TrialStats batch = run_trials(sys, plan, 64, 20180521);
  const TrialStats ref = reference::run_trials(sys, plan, 64, 20180521);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, PooledRunTrialsMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("D5");
  const auto plan = CheckpointPlan::full_hierarchy(2.0, {3});
  util::ThreadPool pool(4);
  const TrialStats batch = run_trials(sys, plan, 64, 42, {}, &pool);
  const TrialStats ref = reference::run_trials(sys, plan, 64, 42);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, RenewalProcessMatchesReferenceFieldForField) {
  const auto sys = systems::table1_system("M");
  const auto plan = CheckpointPlan::full_hierarchy(20.0, {4});
  const auto law = math::FailureLaw::weibull(0.7);
  const auto dist = law->distribution(sys.mtbf);
  const TrialStats batch =
      run_trials_with_distribution(sys, plan, *dist, 48, 7);
  const TrialStats ref =
      reference::run_trials_with_distribution(sys, plan, *dist, 48, 7);
  expect_same_stats(batch, ref);
}

TEST(BatchIdentity, TableOneSystemsMatchReferenceUnderEveryLaw) {
  // The full gate: seven Table I systems x {exponential, Weibull,
  // log-normal}, pooled, at each system's optimized plan, 200 trials.
  // The renewal lanes use the closed-form samplers, whose draw streams
  // the reference engine shares.
  util::ThreadPool pool(4);
  core::OptimizerOptions plan_search;
  plan_search.coarse_tau_points = 24;
  const auto weibull = math::FailureLaw::weibull(0.7);
  const auto lognormal = math::FailureLaw::lognormal(1.0);
  constexpr std::size_t kTrials = 200;
  constexpr std::uint64_t kSeed = 20180521;
  for (const char* name : {"B", "M", "D1", "D3", "D5", "D7", "D9"}) {
    const auto sys = systems::table1_system(name);
    const auto plan =
        engine::EvaluationEngine(sys).optimize(plan_search, &pool).plan;
    {
      SCOPED_TRACE(::testing::Message() << name << " exponential");
      expect_same_stats(run_trials(sys, plan, kTrials, kSeed, {}, &pool),
                        reference::run_trials(sys, plan, kTrials, kSeed, {},
                                              &pool));
    }
    for (const auto* law : {weibull.get(), lognormal.get()}) {
      SCOPED_TRACE(::testing::Message() << name << " " << law->describe());
      const auto dist = law->distribution(sys.mtbf);
      expect_same_stats(
          run_trials_with_distribution(sys, plan, *dist, kTrials, kSeed, {},
                                       &pool),
          reference::run_trials_with_distribution(sys, plan, *dist, kTrials,
                                                  kSeed, {}, &pool));
    }
  }
}

TEST(BatchIdentity, CaptureDoesNotPerturbResults) {
  const auto sys = systems::table1_system("D1");
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {4});
  const TrialStats bare = run_trials(sys, plan, 32, 11);
  TrialTraceCapture capture;
  capture.max_trials = 4;
  SimOptions options;
  options.capture = &capture;
  const TrialStats captured = run_trials(sys, plan, 32, 11, options);
  expect_same_stats(bare, captured);
  ASSERT_EQ(capture.trials.size(), 4u);
  for (const TrialTrace& t : capture.trials) {
    EXPECT_FALSE(t.events.empty());
  }
}

// ---------------------------------------------------------------------------
// Failure-source guards

TEST(ScriptedFailureSource, RejectsNonIncreasingScripts) {
  EXPECT_THROW(ScriptedFailureSource({{5.0, 0}, {5.0, 1}}),
               std::invalid_argument);
  EXPECT_THROW(ScriptedFailureSource({{5.0, 0}, {4.0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(ScriptedFailureSource({{0.0, 0}}), std::invalid_argument);
  EXPECT_THROW(
      ScriptedFailureSource({{std::numeric_limits<double>::infinity(), 0}}),
      std::invalid_argument);
  try {
    ScriptedFailureSource({{2.0, 0}, {1.0, 0}});
    FAIL() << "non-increasing script must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("script[1]"), std::string::npos)
        << e.what();
  }
}

TEST(SeverityCdf, TopBucketIsPinnedToExactlyOne) {
  auto sys = toy_system();
  // A mix whose running sum falls a few ulps short of 1.
  sys.severity_probability = {0.1, 0.2, 0.3, 0.15, 0.25};
  const std::vector<double> cdf = severity_cdf(sys);
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(SeverityCdf, RejectsBrokenMixesWithNamedErrors) {
  auto sys = toy_system();
  sys.severity_probability = {0.5, 0.4};  // sums to 0.9
  try {
    severity_cdf(sys);
    FAIL() << "non-normalized mix must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("severity_probability"),
              std::string::npos)
        << e.what();
  }
  sys.severity_probability = {1.2, -0.2};
  try {
    severity_cdf(sys);
    FAIL() << "negative entry must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("severity_probability[1]"),
              std::string::npos)
        << e.what();
  }
  sys.severity_probability = {};
  EXPECT_THROW(severity_cdf(sys), std::invalid_argument);
}

}  // namespace
}  // namespace mlck::sim
