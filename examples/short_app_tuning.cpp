// Short-application tuning: why a 30-minute job should often *skip* the
// parallel-file-system checkpoint level entirely (paper Sec. IV-F).
//
//   $ ./short_app_tuning [--mtbf=9] [--pfs=20] [--base-time=30]
//
// Compares the paper's technique (which weighs the app's total runtime
// and drops unprofitable levels) against Moody et al.'s steady-state
// optimizer (which always uses every level), and tests the efficiency
// difference for statistical significance. The two runs are the same
// ScenarioSpec with only the model name changed.
#include <iostream>
#include <string>

#include "engine/scenario.h"
#include "stats/hypothesis.h"
#include "systems/scaling.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Table;
  using mlck::util::Option;
  const auto cli = mlck::util::Cli::parse_or_exit(
      argc, argv,
      {{"mtbf", Option::kNumber, "9"},
       {"pfs", Option::kNumber, "20"},
       {"base-time", Option::kNumber, "30"}});
  const double mtbf = cli.get_double("mtbf");
  const double pfs = cli.get_double("pfs");
  const double base_time = cli.get_double("base-time");

  mlck::engine::ScenarioSpec scenario;
  scenario.system = mlck::systems::scaled_system_b(mtbf, pfs, base_time);
  scenario.trials = 400;
  scenario.seed = 7;
  std::cout << "Scenario: " << base_time << "-minute application, MTBF "
            << mtbf << " min, PFS checkpoint/restart " << pfs << " min\n\n";

  Table table({"technique", "plan", "uses PFS level", "sim eff", "sd",
               "predicted"});
  mlck::stats::Summary dauwe_eff, moody_eff;
  for (const std::string model : {"dauwe", "moody"}) {
    scenario.model = model;
    const auto outcome = mlck::engine::run_scenario(scenario);
    const auto& selected = outcome.selected;
    const bool uses_pfs = selected.plan.top_system_level() ==
                          scenario.system.levels() - 1;
    table.add_row({selected.technique, selected.plan.to_string(),
                   uses_pfs ? "yes" : "no",
                   Table::pct(outcome.stats.efficiency.mean),
                   Table::pct(outcome.stats.efficiency.stddev),
                   Table::pct(selected.predicted_efficiency)});
    (model == "dauwe" ? dauwe_eff : moody_eff) = outcome.stats.efficiency;
  }
  table.print(std::cout);

  const auto welch = mlck::stats::welch_test(dauwe_eff, moody_eff);
  std::cout << "\nEfficiency gain from weighing application length: "
            << Table::pct(dauwe_eff.mean - moody_eff.mean, 2)
            << " (Welch z = " << Table::num(welch.statistic, 2)
            << ", p = " << Table::num(welch.p_two_sided, 4) << ", "
            << (welch.significant() ? "significant" : "not significant")
            << " at 95%)\n";
  std::cout << "Note the variance trade-off: skipping the PFS level risks "
               "occasional full restarts, so the winning plan has the "
               "larger standard deviation.\n";
  return 0;
}
