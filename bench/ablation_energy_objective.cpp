// Extension experiment (the paper's system B source, Balaprakash et al.
// [19], studies this trade-off): time-optimal vs energy-optimal vs
// EDP-optimal checkpoint intervals. Checkpoint/restart phases draw less
// power than computation (CPUs stall on I/O), so the objectives disagree
// exactly where checkpointing is frequent.
#include <iostream>

#include "bench_common.h"
#include "core/dauwe_model.h"
#include "core/optimizer.h"
#include "energy/power_model.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Option;
  const auto cli = mlck::bench::parse_options(
      argc, argv, "200",
      {{"checkpoint-power", Option::kNumber, "0.5"},
       {"restart-power", Option::kNumber, "0.5"}});
  mlck::bench::BenchConfig cfg(cli);
  const double ckpt_power = cli.get_double("checkpoint-power");
  const double restart_power = cli.get_double("restart-power");

  using mlck::util::Table;
  mlck::energy::PowerModel power;
  power.checkpoint = ckpt_power;
  power.restart = restart_power;
  power.validate();
  // Objectives select under the --law failure law, as the simulation
  // samples it.
  const mlck::core::DauweModel base({}, cfg.spec.distribution.family());

  std::cout << "Extension: objective comparison (compute power 1.0, "
               "checkpoint "
            << ckpt_power << ", restart " << restart_power << ")\n";
  Table table({"system", "objective", "plan", "sim eff", "sim energy",
               "energy/compute-only"});
  for (const char* name : {"D2", "D4", "D6", "D8"}) {
    const auto sys = mlck::systems::table1_system(name);
    cfg.spec.system = sys;
    mlck::bench::progress("ablation energy: " + std::string(name));
    struct Variant {
      const char* label;
      mlck::energy::Objective objective;
    };
    const Variant variants[] = {
        {"time", mlck::energy::Objective::kTime},
        {"energy", mlck::energy::Objective::kEnergy},
        {"EDP", mlck::energy::Objective::kEdp}};
    for (const auto& variant : variants) {
      const mlck::energy::EnergyObjectiveModel objective(base, power,
                                                         variant.objective);
      const auto best =
          mlck::core::optimize_intervals(objective, sys, {}, cfg.pool.get());
      const auto stats = cfg.simulate_plan(
          cfg.spec, mlck::sim::CompiledSchedule::from_plan(sys, best.plan));
      // Mean simulated energy per run: shares * mean total time.
      mlck::sim::SimBreakdown minutes = stats.time_shares;
      const double mean_energy =
          power.energy(minutes) * stats.total_time.mean;
      table.add_row({name, variant.label, best.plan.to_string(),
                     Table::pct(stats.efficiency.mean),
                     Table::num(mean_energy, 1),
                     Table::num(mean_energy / sys.base_time, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nReading the table: 'energy/compute-only' is the energy "
               "relative to a failure-free run at full power. The energy "
               "objective tolerates longer runs when the extra minutes are "
               "spent in low-power checkpoint I/O; EDP sits between.\n";
  return 0;
}
