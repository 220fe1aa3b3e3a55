#include <gtest/gtest.h>

#include <cmath>

#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "energy/power_model.h"
#include "sim/trial_runner.h"
#include "systems/test_systems.h"

namespace mlck::energy {
namespace {

TEST(PowerModel, EnergyFromSimBreakdownByHand) {
  PowerModel power;
  power.compute = 2.0;
  power.checkpoint = 1.0;
  power.restart = 0.5;
  sim::SimBreakdown b;
  b.useful = 10.0;
  b.rework_compute = 2.0;
  b.rework_checkpoint = 1.0;
  b.rework_restart = 1.0;
  b.checkpoint_ok = 3.0;
  b.checkpoint_failed = 1.0;
  b.restart_ok = 2.0;
  b.restart_failed = 2.0;
  // compute time 14, checkpoint time 4, restart time 4.
  EXPECT_DOUBLE_EQ(power.energy(b), 2.0 * 14.0 + 1.0 * 4.0 + 0.5 * 4.0);
}

TEST(PowerModel, EnergyFromModelBreakdownByHand) {
  PowerModel power;
  power.compute = 1.5;
  power.checkpoint = 0.5;
  power.restart = 0.25;
  core::ModelBreakdown b;
  b.compute = 100.0;
  b.rework_compute = 10.0;
  b.rework_checkpoint = 5.0;
  b.scratch_rework = 5.0;
  b.checkpoint_ok = 8.0;
  b.checkpoint_failed = 2.0;
  b.restart_ok = 4.0;
  b.restart_failed = 4.0;
  EXPECT_DOUBLE_EQ(power.energy(b),
                   1.5 * 120.0 + 0.5 * 10.0 + 0.25 * 8.0);
}

TEST(PowerModel, UniformPowerMakesEnergyProportionalToTime) {
  const PowerModel uniform{1.0, 1.0, 1.0};
  const auto sys = systems::table1_system("D3");
  const auto plan = core::CheckpointPlan::full_hierarchy(2.0, {4});
  const auto stats = sim::run_trials(sys, plan, 20, 3);
  // Energy per trial == total time per trial, so aggregate shares match.
  sim::SimBreakdown minutes = stats.time_shares;  // shares sum to 1
  EXPECT_NEAR(uniform.energy(minutes), 1.0, 1e-9);
}

TEST(PowerModel, ValidateRejectsNegativeDraw) {
  PowerModel bad;
  bad.checkpoint = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(EnergyObjective, TimeObjectiveDelegates) {
  const core::DauweModel base;
  const EnergyObjectiveModel model(base, {}, Objective::kTime);
  const auto sys = systems::table1_system("D4");
  const auto plan = core::CheckpointPlan::full_hierarchy(1.5, {3});
  EXPECT_DOUBLE_EQ(model.expected_time(sys, plan),
                   base.expected_time(sys, plan));
}

TEST(EnergyObjective, EnergyMatchesPredictionBreakdown) {
  const core::DauweModel base;
  PowerModel power;
  power.checkpoint = 0.5;
  power.restart = 0.5;
  const EnergyObjectiveModel model(base, power, Objective::kEnergy);
  const auto sys = systems::table1_system("D4");
  const auto plan = core::CheckpointPlan::full_hierarchy(1.5, {3});
  const auto prediction = base.predict(sys, plan);
  EXPECT_NEAR(model.expected_time(sys, plan),
              power.energy(prediction.breakdown),
              1e-9 * prediction.expected_time);
  // Checkpoint/restart time is billed at half price, so energy is below
  // the plain time.
  EXPECT_LT(model.expected_time(sys, plan), prediction.expected_time);
}

TEST(EnergyObjective, EdpIsEnergyTimesTime) {
  const core::DauweModel base;
  PowerModel power;
  power.checkpoint = 0.7;
  const EnergyObjectiveModel energy(base, power, Objective::kEnergy);
  const EnergyObjectiveModel edp(base, power, Objective::kEdp);
  const auto sys = systems::table1_system("D5");
  const auto plan = core::CheckpointPlan::full_hierarchy(2.5, {4});
  EXPECT_NEAR(edp.expected_time(sys, plan),
              energy.expected_time(sys, plan) *
                  base.expected_time(sys, plan),
              1e-6 * edp.expected_time(sys, plan));
}

TEST(EnergyObjective, InfeasiblePlansStayInfeasible) {
  const core::DauweModel base;
  const EnergyObjectiveModel model(base, {}, Objective::kEnergy);
  const auto sys = systems::table1_system("D1");
  const auto plan = core::CheckpointPlan::full_hierarchy(800.0, {1});
  EXPECT_TRUE(std::isinf(model.expected_time(sys, plan)));
}

TEST(EnergyObjective, OptimizerFindsEnergyOptimalPlan) {
  // With cheap checkpoints (power-wise), the energy optimum checkpoints
  // at least as eagerly as the time optimum, and by definition its
  // predicted energy is no worse.
  const auto sys = systems::table1_system("D5");
  const core::DauweModel base;
  PowerModel power;
  power.checkpoint = 0.3;
  power.restart = 0.3;
  const EnergyObjectiveModel objective(base, power, Objective::kEnergy);

  const auto time_optimal = core::optimize_intervals(base, sys);
  const auto energy_optimal = core::optimize_intervals(objective, sys);

  const double energy_of_time_plan =
      power.energy(base.predict(sys, time_optimal.plan).breakdown);
  const double energy_of_energy_plan =
      power.energy(base.predict(sys, energy_optimal.plan).breakdown);
  EXPECT_LE(energy_of_energy_plan, energy_of_time_plan * (1.0 + 1e-9));

  const double time_of_time_plan =
      base.expected_time(sys, time_optimal.plan);
  const double time_of_energy_plan =
      base.expected_time(sys, energy_optimal.plan);
  EXPECT_LE(time_of_time_plan, time_of_energy_plan * (1.0 + 1e-9));
}

TEST(EnergyObjective, SimulatedEnergyTracksPredictedEnergy) {
  const auto sys = systems::table1_system("D3");
  const core::DauweModel base;
  PowerModel power;
  power.checkpoint = 0.6;
  power.restart = 0.5;
  const auto plan = core::CheckpointPlan::full_hierarchy(2.0, {4});
  const auto prediction = base.predict(sys, plan);
  const double predicted_energy = power.energy(prediction.breakdown);

  // Mean simulated energy over trials.
  double total_energy = 0.0;
  const int trials = 60;
  for (int k = 0; k < trials; ++k) {
    sim::RandomFailureSource src(
        sys, util::Rng(util::derive_stream_seed(77, std::uint64_t(k))));
    const auto r = sim::simulate(
        sys, sim::CompiledSchedule::from_plan(sys, plan), src);
    total_energy += power.energy(r.breakdown);
  }
  EXPECT_NEAR(total_energy / trials / predicted_energy, 1.0, 0.05);
}

TEST(PowerModel, ZeroDrawsAreValidAndYieldZeroEnergy) {
  // All-zero draws are a legal boundary (validate rejects only negative
  // draws) and must zero the energy of any breakdown.
  const PowerModel dark{0.0, 0.0, 0.0};
  EXPECT_NO_THROW(dark.validate());
  sim::SimBreakdown sb;
  sb.useful = 10.0;
  sb.checkpoint_ok = 3.0;
  sb.restart_failed = 2.0;
  EXPECT_DOUBLE_EQ(dark.energy(sb), 0.0);
  core::ModelBreakdown mb;
  mb.compute = 100.0;
  mb.checkpoint_ok = 8.0;
  mb.restart_ok = 4.0;
  EXPECT_DOUBLE_EQ(dark.energy(mb), 0.0);
}

TEST(EnergyObjective, SingleLevelSystemMatchesPredictionBreakdown) {
  // Degenerate hierarchy: one level, so the plan has no counts and the
  // model's only stage is the top one.
  const auto sys = systems::SystemConfig::from_table_row(
      "solo", 1, 500.0, {1.0}, {2.0}, 100.0);
  const core::DauweModel base;
  PowerModel power;
  power.checkpoint = 0.4;
  power.restart = 0.3;
  const EnergyObjectiveModel model(base, power, Objective::kEnergy);
  const auto plan = core::CheckpointPlan::full_hierarchy(25.0, {});
  const auto prediction = base.predict(sys, plan);
  ASSERT_TRUE(std::isfinite(prediction.expected_time));
  EXPECT_NEAR(model.expected_time(sys, plan),
              power.energy(prediction.breakdown),
              1e-9 * prediction.expected_time);
}

TEST(EnergyObjective, VanishingFailureRateApproachesFailureFreeEnergy) {
  // lambda -> 0 limit: no rework or restarts survive, so the energy of a
  // plan collapses to compute draw * T_B plus checkpoint draw * the
  // failure-free checkpoint overhead.
  const auto sys = systems::SystemConfig::from_table_row(
      "calm", 1, 1e12, {1.0}, {2.0}, 100.0);
  const core::DauweModel base;
  PowerModel power;
  power.compute = 1.2;
  power.checkpoint = 0.4;
  power.restart = 0.9;
  const EnergyObjectiveModel model(base, power, Objective::kEnergy);
  // tau0 = 25 on T_B = 100: four periods, three interior checkpoints.
  const auto plan = core::CheckpointPlan::full_hierarchy(25.0, {});
  const double expected = 1.2 * 100.0 + 0.4 * (3.0 * 2.0);
  EXPECT_NEAR(model.expected_time(sys, plan), expected, 1e-6 * expected);
}

}  // namespace
}  // namespace mlck::energy
