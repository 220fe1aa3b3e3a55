// Reproduces paper Figure 5: a *30-minute* application on the scaled
// system B (PFS cost 10 and 20 minutes), 400 trials per bar. Dauwe and Di
// account for the application's base time and drop the expensive PFS
// checkpoints; Moody cannot. The driver also reports the Welch test
// behind the paper's "significant at 95% confidence" claim.
#include <iostream>

#include "bench_common.h"
#include "exp/report.h"
#include "stats/hypothesis.h"
#include "systems/scaling.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(
      argc, argv, "400",
      {{"base-time", mlck::util::Option::kNumber, "30"}, mlck::bench::kCsv,
       mlck::bench::kPlot});
  mlck::bench::BenchConfig cfg(cli);
  const double base_time = cli.get_double("base-time");

  const auto grid = mlck::exp::scaled_b_grid(
      base_time, mlck::systems::figure5_pfs_cost_grid());

  std::vector<mlck::exp::ScenarioResult> rows;
  for (const auto& sc : grid) {
    mlck::bench::progress("figure 5: " + sc.label);
    cfg.spec.system = sc.system;
    rows.push_back(
        cfg.compare_models(sc.label, mlck::exp::kMultilevelModels));
  }

  mlck::exp::print_efficiency_table(
      std::cout,
      "Figure 5: " + std::to_string(static_cast<int>(base_time)) +
          "-minute application (" + std::to_string(cfg.spec.trials) +
          " trials per bar)",
      rows);

  std::cout << "\nLevel selection and Dauwe-vs-Moody significance\n";
  mlck::util::Table detail({"scenario", "Dauwe top level", "Moody top level",
                            "eff. gain", "Welch z", "p (2-sided)",
                            "significant@95%"});
  for (const auto& row : rows) {
    const auto& dauwe = row.outcome("Dauwe et al.");
    const auto& moody = row.outcome("Moody et al.");
    const auto welch = mlck::stats::welch_test(dauwe.stats.efficiency,
                                               moody.stats.efficiency);
    detail.add_row(
        {row.label,
         std::to_string(dauwe.selected.plan.top_system_level() + 1),
         std::to_string(moody.selected.plan.top_system_level() + 1),
         mlck::util::Table::pct(dauwe.stats.efficiency.mean -
                                moody.stats.efficiency.mean),
         mlck::util::Table::num(welch.statistic, 2),
         mlck::util::Table::num(welch.p_two_sided, 4),
         welch.significant() ? "yes" : "no"});
  }
  detail.print(std::cout);

  mlck::bench::emit_efficiency_outputs(cli, rows, "Figure 5");
  return 0;
}
