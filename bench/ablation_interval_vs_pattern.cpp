// Extension experiment for the paper's Sec. II-C discussion: Di et al.
// report that *interval-based* multilevel checkpointing (independent
// per-level periods) can beat pattern-based scheduling, but note the open
// practical question of colliding checkpoints. This driver simulates, on
// every Table I system:
//   * the Dauwe-optimized SCR pattern,
//   * the interval schedule equivalent to that pattern (engine
//     cross-check: identical by construction),
//   * the relaxed first-order interval schedule with free-running periods
//     (collisions resolved by taking the highest due level).
#include <iostream>

#include "bench_common.h"
#include "core/interval_schedule.h"
#include "models/interval_baseline.h"
#include "models/interval_tuner.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(argc, argv, "200");
  mlck::bench::BenchConfig cfg(cli);

  using mlck::util::Table;

  Table table({"system", "pattern eff", "sd", "pattern-as-intervals eff",
               "relaxed intervals eff", "sd", "tuned intervals eff",
               "relaxed schedule"});
  for (const auto& sys : mlck::systems::table1_systems()) {
    mlck::bench::progress("ablation interval-vs-pattern: " + sys.name);
    cfg.spec.system = sys;
    const auto selected = cfg.select_plan(cfg.spec);
    const auto pattern = cfg.simulate_plan(
        cfg.spec, mlck::sim::CompiledSchedule::from_plan(sys, selected.plan));
    const auto simulate = [&](const mlck::core::IntervalSchedule& schedule) {
      return cfg.simulate_plan(
          cfg.spec, mlck::sim::CompiledSchedule::from_schedule(sys, schedule));
    };
    const auto as_intervals =
        simulate(mlck::core::IntervalSchedule::from_plan(selected.plan));
    const auto relaxed_schedule = mlck::models::relaxed_interval_schedule(sys);
    const auto relaxed = simulate(relaxed_schedule);
    // Simulation-tuned periods, then re-scored on the full trial budget
    // with a fresh seed (the tuner's own estimate is optimistically
    // biased by selection).
    const auto law = mlck::engine::sampling_law(cfg.spec);
    const auto tuned = mlck::models::tune_interval_schedule(
        sys, {}, cfg.pool.get(), law.get());
    const auto tuned_eval = simulate(tuned.schedule);
    table.add_row({sys.name, Table::pct(pattern.efficiency.mean),
                   Table::pct(pattern.efficiency.stddev),
                   Table::pct(as_intervals.efficiency.mean),
                   Table::pct(relaxed.efficiency.mean),
                   Table::pct(relaxed.efficiency.stddev),
                   Table::pct(tuned_eval.efficiency.mean),
                   relaxed_schedule.to_string()});
  }
  std::cout << "Extension: pattern-based vs interval-based multilevel "
               "checkpointing (Dauwe pattern vs relaxed per-level periods)\n";
  table.print(std::cout);
  std::cout << "\nReading the table: column 4 must equal column 2 (same "
               "schedule, two engines). The relaxed intervals avoid the "
               "pattern's nesting/rounding constraints but lose the full "
               "model's failed-C/R awareness; where the two effects nearly "
               "cancel, the paper's pattern restriction costs little — its "
               "argument for keeping the practical pattern form.\n";
  return 0;
}
