// Exascale viability study: where multilevel checkpointing stops working
// (the paper's headline systems conclusion). Sweeps the system MTBF for a
// fixed PFS cost and reports the best achievable efficiency, reproducing
// the "a 15-minute MTBF with >10-minute PFS checkpoints drops below 50%
// efficiency" observation.
//
// The sweep is one ScenarioSpec template with the system swapped per
// point; everything else (trials, seed, model options) stays declared in
// one place.
//
//   $ ./exascale_study [--pfs=20] [--trials=100]
#include <iostream>

#include "engine/scenario.h"
#include "systems/scaling.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Table;
  const auto cli = mlck::util::Cli::parse_or_exit(
      argc, argv,
      {{"pfs", mlck::util::Option::kNumber, "20"},
       {"trials", mlck::util::Option::kInt, "100", 1}});
  const double pfs = cli.get_double("pfs");

  mlck::engine::ScenarioSpec scenario;
  scenario.trials = static_cast<std::size_t>(cli.get_int("trials"));
  scenario.seed = 11;

  std::cout << "Multilevel checkpointing viability, 1440-minute "
               "application, PFS cost "
            << pfs << " min (paper Sec. IV-E)\n\n";

  Table table({"MTBF (min)", "plan", "sim eff", "sd", "useful work",
               "failed C/R time"});
  for (const double mtbf : {60.0, 26.0, 20.0, 15.0, 9.0, 6.0, 3.0}) {
    scenario.system = mlck::systems::scaled_system_b(mtbf, pfs, 1440.0);
    const auto outcome = mlck::engine::run_scenario(scenario);
    table.add_row(
        {Table::num(mtbf, 0), outcome.selected.plan.to_string(),
         Table::pct(outcome.stats.efficiency.mean),
         Table::pct(outcome.stats.efficiency.stddev),
         Table::pct(outcome.stats.time_shares.useful),
         Table::pct(outcome.stats.time_shares.checkpoint_failed +
                    outcome.stats.time_shares.restart_failed)});
  }
  table.print(std::cout);

  std::cout << "\nReading the table: once the MTBF approaches the PFS "
               "checkpoint time, failed checkpoint/restart events consume "
               "a rapidly growing share of the machine and no interval "
               "tuning can recover it — the paper's argument that exascale "
               "systems need complementary resilience mechanisms.\n";
  return 0;
}
