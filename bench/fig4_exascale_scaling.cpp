// Reproduces paper Figure 4: a 1440-minute application on the four-level
// system B scaled to exascale-like conditions — system MTBF in
// {26, 20, 15, 9, 3} minutes crossed with PFS checkpoint/restart costs in
// {10, 20, 30, 40} minutes (sections a-d) — optimized by Dauwe, Di, and
// Moody.
#include <iostream>

#include "bench_common.h"
#include "exp/report.h"
#include "systems/scaling.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(
      argc, argv, "200",
      {{"base-time", mlck::util::Option::kNumber, "1440"},
       mlck::bench::kCsv, mlck::bench::kPlot});
  mlck::bench::BenchConfig cfg(cli);
  const double base_time = cli.get_double("base-time");

  const auto grid = mlck::exp::scaled_b_grid(
      base_time, mlck::systems::figure4_pfs_cost_grid());

  std::vector<mlck::exp::ScenarioResult> rows;
  for (const auto& sc : grid) {
    mlck::bench::progress("figure 4: " + sc.label);
    cfg.spec.system = sc.system;
    rows.push_back(
        cfg.compare_models(sc.label, mlck::exp::kMultilevelModels));
  }

  mlck::exp::print_efficiency_table(
      std::cout,
      "Figure 4: " + std::to_string(static_cast<int>(base_time)) +
          "-minute application at exascale-like difficulty (" +
          std::to_string(cfg.spec.trials) + " trials per bar)",
      rows);

  mlck::bench::emit_efficiency_outputs(cli, rows, "Figure 4");
  return 0;
}
