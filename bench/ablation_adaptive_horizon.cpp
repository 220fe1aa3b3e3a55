// Extension experiment generalizing paper Sec. IV-F: instead of deciding
// once per run whether the top level is worth using, the adaptive
// schedule stops taking a level's checkpoints when the *remaining* work
// drops below that level's break-even horizon (its Young interval). The
// driver compares, across application lengths, the static Dauwe-optimized
// plan against its adaptive wrapper.
#include <iostream>

#include "bench_common.h"
#include "core/adaptive.h"
#include "systems/scaling.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Option;
  const auto cli = mlck::bench::parse_options(
      argc, argv, "400",
      {{"mtbf", Option::kNumber, "15"}, {"pfs", Option::kNumber, "20"}});
  mlck::bench::BenchConfig cfg(cli);
  const double mtbf = cli.get_double("mtbf");
  const double pfs = cli.get_double("pfs");

  using mlck::util::Table;

  std::cout << "Extension: horizon-aware adaptive scheduling on scaled "
               "system B (MTBF "
            << mtbf << "m, PFS " << pfs << "m)\n";
  Table table({"T_B (min)", "static plan", "static eff", "sd",
               "adaptive eff", "sd", "gain"});
  for (const double base_time : {30.0, 60.0, 120.0, 240.0, 480.0, 1440.0}) {
    const auto sys = mlck::systems::scaled_system_b(mtbf, pfs, base_time);
    mlck::bench::progress("ablation adaptive: T_B=" +
                          std::to_string(static_cast<int>(base_time)));
    cfg.spec.system = sys;
    const auto selected = cfg.select_plan(cfg.spec);
    const auto static_stats = cfg.simulate_plan(
        cfg.spec, mlck::sim::CompiledSchedule::from_plan(sys, selected.plan));
    const auto adaptive_stats = cfg.simulate_plan(
        cfg.spec, mlck::sim::CompiledSchedule::from_adaptive(
                      sys, mlck::core::make_adaptive(sys, selected.plan)));
    table.add_row(
        {Table::num(base_time, 0), selected.plan.to_string(),
         Table::pct(static_stats.efficiency.mean),
         Table::pct(static_stats.efficiency.stddev),
         Table::pct(adaptive_stats.efficiency.mean),
         Table::pct(adaptive_stats.efficiency.stddev),
         Table::pct(adaptive_stats.efficiency.mean -
                        static_stats.efficiency.mean, 2)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: where the static optimizer already drops "
               "the PFS level (short runs) the adaptive rule adds little; "
               "the gain peaks at the first length that brings the PFS "
               "level back (its expensive tail checkpoints get trimmed) "
               "and fades as the run grows and the tail becomes a "
               "vanishing fraction of it.\n";
  return 0;
}
