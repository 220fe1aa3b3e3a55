// Ablation for paper Sec. IV-F: the value of letting the optimizer drop
// expensive top checkpoint levels for short applications. For each
// Figure 5 scenario (30-minute application) the Dauwe model selects
// intervals twice — once free to skip levels, once forced to use all
// four — and both plans are simulated.
#include <iostream>

#include "bench_common.h"
#include "systems/scaling.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(
      argc, argv, "400", {{"base-time", mlck::util::Option::kNumber, "30"}});
  mlck::bench::BenchConfig cfg(cli);
  const double base_time = cli.get_double("base-time");

  using mlck::util::Table;

  Table table({"scenario", "free top level", "free eff", "forced eff",
               "gain", "free sd", "forced sd"});
  const auto grid = mlck::exp::scaled_b_grid(
      base_time, mlck::systems::figure5_pfs_cost_grid());
  for (const auto& sc : grid) {
    mlck::bench::progress("ablation level-skipping: " + sc.label);
    mlck::engine::ScenarioSpec spec = cfg.spec;
    spec.system = sc.system;
    const auto skip = cfg.run_scenario(spec);
    spec.optimizer.allow_suffix_skipping = false;
    const auto all = cfg.run_scenario(spec);
    table.add_row(
        {sc.label,
         std::to_string(skip.selected.plan.top_system_level() + 1),
         Table::pct(skip.stats.efficiency.mean),
         Table::pct(all.stats.efficiency.mean),
         Table::pct(skip.stats.efficiency.mean - all.stats.efficiency.mean,
                    2),
         Table::pct(skip.stats.efficiency.stddev),
         Table::pct(all.stats.efficiency.stddev)});
  }
  std::cout << "Ablation (Sec. IV-F): level skipping for a "
            << static_cast<int>(base_time) << "-minute application\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: skipping the PFS level raises mean "
               "efficiency (up to ~20%) at slightly higher variance.\n";
  return 0;
}
