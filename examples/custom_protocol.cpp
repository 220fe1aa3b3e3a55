// Custom protocol comparison: build an FTI-like four-level checkpoint
// hierarchy (local SSD, partner copy, Reed-Solomon encoded group, PFS —
// paper Sec. II-B) and compare every interval-selection technique the
// library ships, including the historical Young baseline.
//
//   $ ./custom_protocol [--trials=100]
#include <iostream>

#include "exp/experiments.h"
#include "systems/system_config.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Table;
  const mlck::util::Cli cli(argc, argv);
  mlck::engine::ScenarioSpec spec;
  spec.trials = static_cast<std::size_t>(cli.get_int("trials", 100));
  spec.seed = 23;

  // FTI-style hierarchy: the Reed-Solomon level (3rd) is costlier than the
  // partner copy but far cheaper than the PFS, and covers rarer failures.
  spec.system = mlck::systems::SystemConfig::from_table_row(
      "fti-like", /*levels=*/4, /*mtbf=*/45.0,
      /*severity=*/{0.55, 0.25, 0.15, 0.05},
      /*checkpoint=restart cost=*/{0.1, 0.4, 1.2, 8.0},
      /*base_time=*/720.0);

  std::cout << "FTI-like four-level protocol, 12-hour application, MTBF "
            << spec.system.mtbf << " min\n\n";

  Table table({"technique", "plan", "sim eff", "sd", "predicted",
               "pred err"});
  const auto result =
      mlck::exp::compare_models(spec, "fti-like", mlck::exp::kAllModels);
  for (const auto& o : result.outcomes) {
    table.add_row({o.selected.technique, o.selected.plan.to_string(),
                   Table::pct(o.stats.efficiency.mean),
                   Table::pct(o.stats.efficiency.stddev),
                   Table::pct(o.selected.predicted_efficiency),
                   Table::pct(o.prediction_error(), 2)});
  }
  table.print(std::cout);

  std::cout << "\nWhat to look for: the multilevel techniques cluster well "
               "above the single-level baselines, and the models that "
               "account for failures during checkpoints and restarts "
               "(Dauwe, Moody) predict their own performance much more "
               "accurately than those that do not (Di, Benoit, Young).\n";
  return 0;
}
