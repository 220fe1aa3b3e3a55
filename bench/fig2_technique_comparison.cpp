// Reproduces paper Figure 2: efficiency of five checkpoint-interval
// optimization techniques (Dauwe, Di, Moody, Benoit, Daly) on the eleven
// Table I test systems. For each bar the driver prints the simulated
// efficiency mean and standard deviation over the Monte-Carlo trials plus
// the technique's own prediction (the figure's diamonds).
#include <iostream>

#include "bench_common.h"
#include "exp/report.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  mlck::bench::BenchConfig cfg(cli, /*default_trials=*/200);
  mlck::bench::reject_unknown_flags(cli);

  std::vector<mlck::exp::ScenarioResult> rows;
  for (const auto& sys : mlck::systems::table1_systems()) {
    mlck::bench::progress("figure 2: system " + sys.name);
    cfg.spec.system = sys;
    rows.push_back(cfg.compare_models(sys.name, mlck::exp::kFigure2Models));
  }

  mlck::exp::print_efficiency_table(
      std::cout,
      "Figure 2: technique efficiency on the Table I test systems (" +
          std::to_string(cfg.spec.trials) + " trials per bar)",
      rows);

  std::cout << "\nSelected plans\n";
  mlck::util::Table plans({"system", "technique", "plan"});
  for (const auto& row : rows) {
    for (const auto& o : row.outcomes) {
      plans.add_row(
          {row.label, o.selected.technique, o.selected.plan.to_string()});
    }
  }
  plans.print(std::cout);

  cfg.emit_efficiency_plot(rows, "Figure 2");

  if (cfg.csv) {
    std::cout << "\n";
    mlck::exp::write_efficiency_csv(std::cout, rows);
  }
  return 0;
}
