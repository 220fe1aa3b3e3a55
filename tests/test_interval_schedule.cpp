#include <gtest/gtest.h>

#include <cmath>

#include "core/interval_schedule.h"
#include "core/plan.h"
#include "core/dauwe_model.h"
#include "models/interval_baseline.h"
#include "models/interval_tuner.h"
#include "sim/simulator.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"

namespace mlck::core {
namespace {

using Script = std::vector<sim::ScriptedFailureSource::AbsoluteFailure>;

systems::SystemConfig toy_system() {
  return systems::SystemConfig::from_table_row("toy", 2, 100.0, {0.8, 0.2},
                                               {1.0, 2.0}, 20.0);
}

IntervalSchedule toy_schedule() {
  IntervalSchedule s;
  s.levels = {0, 1};
  s.periods = {5.0, 7.0};
  return s;
}

TEST(IntervalSchedule, GridMergesLevelsAndOrdersPoints) {
  const auto s = toy_schedule();
  // Grid within T_B = 20: L0 at 5,10,15; L1 at 7,14. Merged sequence:
  // 5(L0) 7(L1) 10(L0) 14(L1) 15(L0).
  struct Expected {
    double work;
    int used_index;
  };
  const Expected seq[] = {{5, 0}, {7, 1}, {10, 0}, {14, 1}, {15, 0}};
  double w = 0.0;
  for (const auto& e : seq) {
    const auto next = s.next_checkpoint(w, 20.0);
    ASSERT_TRUE(next.has_value());
    EXPECT_DOUBLE_EQ(next->work, e.work);
    EXPECT_EQ(next->used_index, e.used_index);
    w = next->work;
  }
  EXPECT_FALSE(s.next_checkpoint(w, 20.0).has_value());  // next is 20 = T_B
}

TEST(IntervalSchedule, CollisionTakesTheHighestLevel) {
  IntervalSchedule s;
  s.levels = {0, 1, 2};
  s.periods = {2.0, 4.0, 8.0};
  const auto sys = systems::table1_system("M");
  s.validate(sys);
  EXPECT_EQ(s.next_checkpoint(0.0, 100.0)->used_index, 0);  // work 2
  EXPECT_EQ(s.next_checkpoint(2.0, 100.0)->used_index, 1);  // work 4
  EXPECT_EQ(s.next_checkpoint(6.0, 100.0)->used_index, 2);  // work 8
}

TEST(IntervalSchedule, OnGridPointAdvancesToTheNextOne) {
  const auto s = toy_schedule();
  // Exactly on 5 (or within epsilon): the next trigger is 7, not 5 again.
  EXPECT_DOUBLE_EQ(s.next_checkpoint(5.0, 20.0)->work, 7.0);
  EXPECT_DOUBLE_EQ(
      s.next_checkpoint(5.0 - IntervalSchedule::kWorkEpsilon / 2, 20.0)->work,
      7.0);
}

TEST(IntervalSchedule, ValidateRejectsMalformed) {
  const auto sys = toy_system();
  IntervalSchedule empty;
  EXPECT_THROW(empty.validate(sys), std::invalid_argument);

  IntervalSchedule mismatch;
  mismatch.levels = {0, 1};
  mismatch.periods = {1.0};
  EXPECT_THROW(mismatch.validate(sys), std::invalid_argument);

  IntervalSchedule bad_period;
  bad_period.levels = {0};
  bad_period.periods = {0.0};
  EXPECT_THROW(bad_period.validate(sys), std::invalid_argument);

  IntervalSchedule bad_level;
  bad_level.levels = {5};
  bad_level.periods = {1.0};
  EXPECT_THROW(bad_level.validate(sys), std::invalid_argument);
}

TEST(IntervalSchedule, FromPlanReproducesThePatternGrid) {
  const auto plan = CheckpointPlan::full_hierarchy(3.0, {2, 1});
  const auto s = IntervalSchedule::from_plan(plan);
  ASSERT_EQ(s.periods.size(), 3u);
  EXPECT_DOUBLE_EQ(s.periods[0], 3.0);
  EXPECT_DOUBLE_EQ(s.periods[1], 9.0);
  EXPECT_DOUBLE_EQ(s.periods[2], 18.0);
  // Every pattern checkpoint point and level must coincide.
  double w = 0.0;
  for (long long j = 1; j <= 11; ++j) {
    const auto next = s.next_checkpoint(w, 1e9);
    ASSERT_TRUE(next.has_value());
    EXPECT_NEAR(next->work, 3.0 * static_cast<double>(j), 1e-12);
    EXPECT_EQ(next->used_index, plan.checkpoint_after_interval(j)) << j;
    w = next->work;
  }
}

TEST(IntervalSchedule, ToStringIsReadable) {
  const auto s = toy_schedule();
  EXPECT_NE(s.to_string().find("L1:5"), std::string::npos);
  EXPECT_NE(s.to_string().find("L2:7"), std::string::npos);
}

TEST(IntervalSim, FailureFreeTimeline) {
  const auto sys = toy_system();
  const auto s = toy_schedule();
  sim::ScriptedFailureSource src({});
  const auto r = sim::simulate(
      sys, sim::CompiledSchedule::from_schedule(sys, s), src);
  // 20 work + checkpoints at 5,10,15 (L0, 1 min) and 7,14 (L1, 2 min).
  EXPECT_DOUBLE_EQ(r.total_time, 20.0 + 3.0 + 4.0);
  EXPECT_EQ(r.checkpoints_completed, 5);
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 20.0);
}

TEST(IntervalSim, SeverityOneRestoresFromTheIndependentLevelOneGrid) {
  const auto sys = toy_system();
  const auto s = toy_schedule();
  // Timeline: work[0,5] ck0[5,6] work[6,8] ck1[8,10] work[10,13] ...
  // At t=11 the work position is 7 + (11 - 10) = 8; a severity-1 failure
  // restores from the level-1 checkpoint holding work 7.
  sim::ScriptedFailureSource src({{11.0, 1}});
  const auto r = sim::simulate(
      sys, sim::CompiledSchedule::from_schedule(sys, s), src);
  EXPECT_EQ(r.restarts_completed, 1);
  EXPECT_DOUBLE_EQ(r.breakdown.restart_ok, 2.0);
  EXPECT_DOUBLE_EQ(r.breakdown.rework_compute, 1.0);  // work 8 -> 7
  EXPECT_DOUBLE_EQ(r.breakdown.useful, 20.0);
  EXPECT_FALSE(r.capped);
}

TEST(IntervalSim, PatternEquivalentScheduleGivesIdenticalTrajectories) {
  // The pattern engine and the interval engine must agree event-for-event
  // when fed the same failure stream and an equivalent schedule.
  const auto sys = systems::table1_system("D3");
  const auto plan = CheckpointPlan::full_hierarchy(2.5, {3});
  const auto equivalent = IntervalSchedule::from_plan(plan);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    sim::RandomFailureSource a(sys,
                               util::Rng(util::derive_stream_seed(3, seed)));
    sim::RandomFailureSource b(sys,
                               util::Rng(util::derive_stream_seed(3, seed)));
    const auto ra = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), a);
    const auto rb = sim::simulate(
        sys, sim::CompiledSchedule::from_schedule(sys, equivalent), b);
    EXPECT_DOUBLE_EQ(ra.total_time, rb.total_time) << seed;
    EXPECT_EQ(ra.failures, rb.failures);
    EXPECT_EQ(ra.checkpoints_completed, rb.checkpoints_completed);
    EXPECT_EQ(ra.restarts_completed, rb.restarts_completed);
    EXPECT_DOUBLE_EQ(ra.breakdown.rework_compute, rb.breakdown.rework_compute);
  }
}

TEST(IntervalSim, RunTrialsOverloadAggregates) {
  const auto sys = systems::table1_system("D2");
  const auto s = models::relaxed_interval_schedule(sys);
  const auto stats = sim::run_trials(
      sys, sim::CompiledSchedule::from_schedule(sys, s), nullptr, 30, 5);
  EXPECT_EQ(stats.trials, 30u);
  EXPECT_GT(stats.efficiency.mean, 0.3);
  EXPECT_LE(stats.efficiency.max, 1.0);
  EXPECT_NEAR(stats.time_shares.total(), 1.0, 1e-9);
}

TEST(RelaxedIntervalSchedule, ClosedFormPeriods) {
  const auto sys = systems::table1_system("D1");  // MTBF 51.42
  const auto s = models::relaxed_interval_schedule(sys);
  ASSERT_EQ(s.periods.size(), 2u);
  EXPECT_NEAR(s.periods[0],
              std::sqrt(2.0 * 0.333 / sys.lambda(0)), 1e-9);
  EXPECT_NEAR(s.periods[1],
              std::sqrt(2.0 * 0.833 / sys.lambda(1)), 1e-9);
  EXPECT_NO_THROW(s.validate(sys));
}

TEST(RelaxedIntervalSchedule, PeriodsClampedForShortApplications) {
  auto sys = systems::table1_system("D1");
  sys.base_time = 10.0;
  const auto s = models::relaxed_interval_schedule(sys);
  for (const double p : s.periods) EXPECT_LE(p, 5.0);
}

TEST(IntervalTuner, ImprovesOrMatchesTheRelaxedStart) {
  const auto sys = systems::table1_system("D4");
  models::IntervalTunerOptions opts;
  opts.trials = 24;
  opts.max_rounds = 6;
  const auto tuned = models::tune_interval_schedule(sys, opts);
  // The tuner's estimate at its own seed can never be below the start
  // point's (it only accepts improvements).
  const auto start = models::relaxed_interval_schedule(sys);
  const auto start_eff =
      sim::run_trials(sys, sim::CompiledSchedule::from_schedule(sys, start),
                      nullptr, opts.trials, opts.seed)
          .efficiency.mean;
  EXPECT_GE(tuned.efficiency, start_eff - 1e-12);
  EXPECT_GT(tuned.evaluations, 1u);
  EXPECT_NO_THROW(tuned.schedule.validate(sys));
}

TEST(IntervalTuner, DeterministicForFixedOptions) {
  const auto sys = systems::table1_system("D3");
  models::IntervalTunerOptions opts;
  opts.trials = 16;
  opts.max_rounds = 4;
  const auto a = models::tune_interval_schedule(sys, opts);
  const auto b = models::tune_interval_schedule(sys, opts);
  EXPECT_EQ(a.schedule.periods, b.schedule.periods);
  EXPECT_DOUBLE_EQ(a.efficiency, b.efficiency);
}

TEST(IntervalTuner, PeriodsStayWithinBounds) {
  const auto sys = systems::table1_system("D8");
  models::IntervalTunerOptions opts;
  opts.trials = 16;
  opts.max_rounds = 8;
  const auto tuned = models::tune_interval_schedule(sys, opts);
  for (const double p : tuned.schedule.periods) {
    EXPECT_GE(p, sys.base_time * 1e-4);
    EXPECT_LE(p, sys.base_time / 2.0);
  }
}

TEST(Trace, RecordsTheFullTimeline) {
  const auto sys = toy_system();
  const auto s = toy_schedule();
  std::vector<sim::TraceEvent> trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  sim::ScriptedFailureSource src({{11.0, 0}});
  const auto r = sim::simulate(
      sys, sim::CompiledSchedule::from_schedule(sys, s), src, opts);
  ASSERT_FALSE(trace.empty());
  // Wall-clock continuity: events abut (scratch restarts are zero-width).
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].start, trace[i - 1].end);
  }
  EXPECT_DOUBLE_EQ(trace.front().start, 0.0);
  EXPECT_DOUBLE_EQ(trace.back().end, r.total_time);
  // The severity-0 failure at t=11 interrupts a compute phase and is
  // followed by a level-0 restart.
  bool found_failure = false;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    if (!trace[i].completed && trace[i].failure_severity == 0) {
      found_failure = true;
      EXPECT_EQ(trace[i].kind, sim::TraceEvent::Kind::kCompute);
      EXPECT_EQ(trace[i + 1].kind, sim::TraceEvent::Kind::kRestart);
      EXPECT_EQ(trace[i + 1].system_level, 0);
    }
  }
  EXPECT_TRUE(found_failure);
}

TEST(Trace, CheckpointEventsCarryLevels) {
  const auto sys = toy_system();
  const auto plan = CheckpointPlan::full_hierarchy(5.0, {1});
  std::vector<sim::TraceEvent> trace;
  sim::SimOptions opts;
  opts.trace = &trace;
  sim::ScriptedFailureSource src({});
  sim::simulate(sys, sim::CompiledSchedule::from_plan(sys, plan), src, opts);
  std::vector<int> ckpt_levels;
  for (const auto& ev : trace) {
    if (ev.kind == sim::TraceEvent::Kind::kCheckpoint) {
      ckpt_levels.push_back(ev.system_level);
    }
  }
  // T_B = 20, tau0 = 5, pattern {1}: checkpoints after intervals 1..3 at
  // levels 0, 1, 0 (interval 4 completes the run).
  EXPECT_EQ(ckpt_levels, (std::vector<int>{0, 1, 0}));
}

TEST(RenewalSource, ExponentialRenewalMatchesPoissonMoments) {
  const auto sys = systems::table1_system("D2");
  const math::Exponential law(sys.lambda_total());
  sim::RenewalFailureSource renewal(sys, law, util::Rng(5));
  double sum = 0.0;
  std::vector<int> severities(2, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto ev = renewal.next();
    sum += ev.interarrival;
    severities[static_cast<std::size_t>(ev.severity)]++;
  }
  EXPECT_NEAR(sum / n, sys.mtbf, 0.3);
  EXPECT_NEAR(severities[0] / double(n), 0.833, 0.01);
  EXPECT_NEAR(severities[1] / double(n), 0.167, 0.01);
}

TEST(RenewalSource, WeibullBreaksTheExponentialPrediction) {
  // Same mean time between failures, bursty clustering (shape < 1): the
  // realized efficiency moves away from what the exponential-based model
  // predicts — the exponential renewal stays on the prediction. (The
  // direction is non-obvious: bursts waste little *extra* work because it
  // was already lost, while the long quiet gaps between bursts are nearly
  // failure-free, so same-mean heavy tails actually help a little.)
  const auto sys = systems::table1_system("D4");
  const auto plan = CheckpointPlan::full_hierarchy(1.3, {3});
  const math::Exponential expo(sys.lambda_total());
  const math::Weibull bursty = math::Weibull::with_mean(sys.mtbf, 0.6);
  const auto schedule = sim::CompiledSchedule::from_plan(sys, plan);
  const auto base = sim::run_trials(sys, schedule, &expo, 120, 21);
  const auto heavy = sim::run_trials(sys, schedule, &bursty, 120, 21);
  const double predicted =
      sys.base_time / DauweModel{}.expected_time(sys, plan);
  EXPECT_LT(std::abs(base.efficiency.mean - predicted), 0.02);
  EXPECT_GT(std::abs(heavy.efficiency.mean - predicted),
            std::abs(base.efficiency.mean - predicted));
}

}  // namespace
}  // namespace mlck::core
