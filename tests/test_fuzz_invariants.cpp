// Randomized invariant checks: hundreds of randomly generated systems,
// plans, and schedules pushed through the model and the simulator, with
// every structural invariant asserted. A cheap fuzzer that has caught
// real accounting bugs during development (rollback double-counting,
// stale-future checkpoints under escalation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/adaptive.h"
#include "core/dauwe_model.h"
#include "core/interval_schedule.h"
#include "models/moody.h"
#include "sim/simulator.h"
#include "systems/system_config.h"
#include "prop_support.h"
#include "util/rng.h"

namespace mlck {
namespace {

/// Random but structurally valid system: 1-5 levels, MTBF spanning
/// harsh-to-benign, costs spanning trivial-to-painful.
systems::SystemConfig random_system(util::Rng& rng) {
  const int levels = 1 + static_cast<int>(rng.below(5));
  systems::SystemConfig sys;
  sys.name = "fuzz";
  sys.mtbf = 2.0 * std::pow(10.0, rng.uniform() * 3.0);  // 2 .. 2000 min
  double total = 0.0;
  for (int l = 0; l < levels; ++l) {
    const double weight = 0.05 + rng.uniform();
    sys.severity_probability.push_back(weight);
    total += weight;
  }
  for (auto& s : sys.severity_probability) s /= total;
  double cost = 0.01 * (1.0 + rng.uniform());
  for (int l = 0; l < levels; ++l) {
    sys.checkpoint_cost.push_back(cost);
    cost *= 1.5 + 3.0 * rng.uniform();  // ascending, realistic hierarchy
  }
  sys.restart_cost = sys.checkpoint_cost;
  sys.base_time = 30.0 * std::pow(10.0, rng.uniform() * 1.7);  // 30..1500
  sys.validate();
  return sys;
}

/// Random valid plan over a random subset of levels.
core::CheckpointPlan random_plan(util::Rng& rng,
                                 const systems::SystemConfig& sys) {
  core::CheckpointPlan plan;
  const int levels = sys.levels();
  // Non-empty random ascending subset.
  for (int l = 0; l < levels; ++l) {
    if (rng.uniform() < 0.7) plan.levels.push_back(l);
  }
  if (plan.levels.empty()) plan.levels.push_back(levels - 1);
  for (std::size_t k = 0; k + 1 < plan.levels.size(); ++k) {
    plan.counts.push_back(static_cast<int>(rng.below(6)));
  }
  // tau0 small enough that at least one pattern period fits.
  const double pattern = static_cast<double>(plan.pattern_period());
  plan.tau0 = sys.base_time / pattern *
              (0.02 + 0.9 * rng.uniform());
  plan.validate(sys);
  return plan;
}

TEST(FuzzInvariants, SimulatorAccountingAlwaysBalances) {
  const std::uint64_t seed = testprop::suite_seed(0xF00D);
  SCOPED_TRACE(testprop::repro("FuzzInvariants.SimulatorAccountingAlwaysBalances", seed));
  util::Rng rng(seed);
  for (int round = 0; round < 150; ++round) {
    const auto sys = random_system(rng);
    const auto plan = random_plan(rng, sys);
    sim::SimOptions opts;
    opts.max_time_factor = 50.0;  // keep doomed configs cheap
    if (round % 2 == 1) {
      opts.restart_policy = sim::RestartPolicy::kMoodyEscalate;
    }
    sim::RandomFailureSource src(sys, util::Rng(rng.next_u64()));
    const auto r = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), src, opts);
    ASSERT_NEAR(r.breakdown.total(), r.total_time,
                1e-6 * (1.0 + r.total_time))
        << "round " << round << " " << plan.to_string();
    ASSERT_GE(r.breakdown.useful, 0.0);
    ASSERT_LE(r.breakdown.useful, sys.base_time + 1e-9);
    if (!r.capped) {
      ASSERT_DOUBLE_EQ(r.breakdown.useful, sys.base_time)
          << "round " << round;
    }
    ASSERT_LE(r.efficiency(), 1.0 + 1e-12);
  }
}

TEST(FuzzInvariants, ModelAlwaysFiniteOrInfeasibleNeverNan) {
  const std::uint64_t seed = testprop::suite_seed(0xBEEF);
  SCOPED_TRACE(testprop::repro("FuzzInvariants.ModelAlwaysFiniteOrInfeasibleNeverNan", seed));
  util::Rng rng(seed);
  const core::DauweModel dauwe;
  const models::MoodyModel moody;
  for (int round = 0; round < 300; ++round) {
    const auto sys = random_system(rng);
    const auto plan = random_plan(rng, sys);
    for (const core::ExecutionTimeModel* model :
         {static_cast<const core::ExecutionTimeModel*>(&dauwe),
          static_cast<const core::ExecutionTimeModel*>(&moody)}) {
      const double t = model->expected_time(sys, plan);
      ASSERT_FALSE(std::isnan(t)) << "round " << round;
      if (std::isfinite(t)) {
        ASSERT_GE(t, sys.base_time * 0.999) << "round " << round;
      }
    }
    const auto p = dauwe.predict(sys, plan);
    if (std::isfinite(p.expected_time)) {
      ASSERT_NEAR(p.breakdown.total(), p.expected_time,
                  1e-6 * p.expected_time);
    }
  }
}

TEST(FuzzInvariants, AdaptiveNeverChecksMoreThanStaticFailureFree) {
  const std::uint64_t seed = testprop::suite_seed(0xACE);
  SCOPED_TRACE(testprop::repro("FuzzInvariants.AdaptiveNeverChecksMoreThanStaticFailureFree", seed));
  util::Rng rng(seed);
  for (int round = 0; round < 80; ++round) {
    const auto sys = random_system(rng);
    const auto plan = random_plan(rng, sys);
    const auto adaptive = core::make_adaptive(sys, plan);
    sim::ScriptedFailureSource a({}), b({});
    const auto static_run = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), a);
    const auto adaptive_run = sim::simulate(
        sys, sim::CompiledSchedule::from_adaptive(sys, adaptive), b);
    ASSERT_LE(adaptive_run.checkpoints_completed,
              static_run.checkpoints_completed)
        << "round " << round;
    ASSERT_LE(adaptive_run.total_time, static_run.total_time + 1e-9);
    ASSERT_DOUBLE_EQ(adaptive_run.breakdown.useful, sys.base_time);
  }
}

TEST(FuzzInvariants, IntervalGridAlwaysAdvances) {
  const std::uint64_t seed = testprop::suite_seed(0xD1CE);
  SCOPED_TRACE(testprop::repro("FuzzInvariants.IntervalGridAlwaysAdvances", seed));
  util::Rng rng(seed);
  for (int round = 0; round < 100; ++round) {
    const auto sys = random_system(rng);
    core::IntervalSchedule schedule;
    for (int l = 0; l < sys.levels(); ++l) {
      schedule.levels.push_back(l);
      schedule.periods.push_back(sys.base_time *
                                 (0.01 + 0.4 * rng.uniform()));
    }
    schedule.validate(sys);
    double work = 0.0;
    int steps = 0;
    while (const auto next = schedule.next_checkpoint(work, sys.base_time)) {
      ASSERT_GT(next->work, work) << "round " << round;
      ASSERT_LT(next->work, sys.base_time);
      ASSERT_GE(next->used_index, 0);
      ASSERT_LT(next->used_index, schedule.used_levels());
      work = next->work;
      if (++steps > 100000) FAIL() << "grid did not terminate";
    }
  }
}

}  // namespace
}  // namespace mlck
