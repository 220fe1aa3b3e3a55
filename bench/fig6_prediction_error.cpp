// Reproduces paper Figure 6: prediction error (each model's predicted
// efficiency minus the simulated efficiency) for the twenty Figure 4
// scenarios, sorted by increasing magnitude of the Moody et al. error.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "exp/report.h"
#include "systems/scaling.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli =
      mlck::bench::parse_options(argc, argv, "200", {mlck::bench::kPlot});
  mlck::bench::BenchConfig cfg(cli);

  const auto grid = mlck::exp::scaled_b_grid(
      1440.0, mlck::systems::figure4_pfs_cost_grid());

  std::vector<mlck::exp::ScenarioResult> rows;
  for (const auto& sc : grid) {
    mlck::bench::progress("figure 6: " + sc.label);
    cfg.spec.system = sc.system;
    rows.push_back(
        cfg.compare_models(sc.label, mlck::exp::kMultilevelModels));
  }

  mlck::exp::print_prediction_error_table(
      std::cout,
      "Figure 6: prediction error (predicted - simulated efficiency) for "
      "the 20 Figure 4 scenarios, sorted by |Moody error|",
      rows, "Moody et al.");

  if (const auto prefix = cli.value("plot"); prefix && !rows.empty()) {
    std::vector<std::string> names;
    for (const auto& o : rows.front().outcomes) {
      names.push_back(o.selected.technique);
    }
    std::ofstream dat(*prefix + ".dat");
    mlck::exp::write_prediction_error_dat(dat, rows, "Moody et al.");
    std::ofstream gp(*prefix + ".gp");
    mlck::exp::write_prediction_error_gp(gp, *prefix + ".dat", "Figure 6",
                                         names, *prefix + ".png");
  }

  // Summary statistics in the shape of the paper's Sec. IV-G discussion.
  double moody_min = 0.0, di_max = 0.0, dauwe_worst = 0.0;
  for (const auto& row : rows) {
    moody_min = std::min(moody_min,
                         row.outcome("Moody et al.").prediction_error());
    di_max = std::max(di_max, row.outcome("Di et al.").prediction_error());
    dauwe_worst = std::max(
        dauwe_worst,
        std::abs(row.outcome("Dauwe et al.").prediction_error()));
  }
  std::cout << "\nMoody et al. worst under-estimate: "
            << mlck::util::Table::pct(moody_min, 2)
            << "\nDi et al. worst over-estimate:     "
            << mlck::util::Table::pct(di_max, 2)
            << "\nDauwe et al. worst |error|:        "
            << mlck::util::Table::pct(dauwe_worst, 2) << "\n";
  return 0;
}
