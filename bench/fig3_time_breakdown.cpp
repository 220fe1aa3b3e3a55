// Reproduces paper Figure 3: how application wall-clock time splits
// across baseline execution, successful/failed checkpoints,
// successful/failed restarts, and recomputation, for the three best
// techniques on the Table I systems.
#include <iostream>

#include "bench_common.h"
#include "exp/report.h"
#include "systems/test_systems.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(argc, argv, "200");
  mlck::bench::BenchConfig cfg(cli);

  std::vector<mlck::exp::ScenarioResult> rows;
  for (const auto& sys : mlck::systems::table1_systems()) {
    mlck::bench::progress("figure 3: system " + sys.name);
    cfg.spec.system = sys;
    rows.push_back(
        cfg.compare_models(sys.name, mlck::exp::kMultilevelModels));
  }

  mlck::exp::print_breakdown_table(
      std::cout,
      "Figure 3: time breakdown per technique and test system (" +
          std::to_string(cfg.spec.trials) + " trials each)",
      rows);
  return 0;
}
