// Ablation for paper Sec. IV-G: the simulator's restart semantics. The
// paper's simulator assumes a repeated failure during a restart retries
// the same checkpoint level; Moody et al.'s model instead assumes it
// escalates to the next level. This driver simulates the *same* plans
// under both behaviours to quantify how much the escalation assumption
// costs — the wedge behind Moody's systematic efficiency under-estimation.
#include <iostream>

#include "bench_common.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(argc, argv, "200");
  mlck::bench::BenchConfig cfg(cli);

  using mlck::util::Table;

  Table table({"system", "retry eff", "escalate eff", "gap",
               "retry restarts", "escalate restarts"});
  for (const auto& sys : mlck::systems::table1_systems()) {
    mlck::bench::progress("ablation restart-semantics: " + sys.name);
    mlck::engine::ScenarioSpec spec = cfg.spec;
    spec.system = sys;
    const auto selected = cfg.select_plan(spec);
    const auto schedule =
        mlck::sim::CompiledSchedule::from_plan(spec.system, selected.plan);
    spec.sim.restart_policy = mlck::sim::RestartPolicy::kRetrySameLevel;
    const auto r = cfg.simulate_plan(spec, schedule);
    spec.sim.restart_policy = mlck::sim::RestartPolicy::kMoodyEscalate;
    const auto e = cfg.simulate_plan(spec, schedule);
    table.add_row({sys.name, Table::pct(r.efficiency.mean),
                   Table::pct(e.efficiency.mean),
                   Table::pct(r.efficiency.mean - e.efficiency.mean, 2),
                   Table::num(r.time_shares.restart_ok +
                                  r.time_shares.restart_failed, 4),
                   Table::num(e.time_shares.restart_ok +
                                  e.time_shares.restart_failed, 4)});
  }
  std::cout << "Ablation (Sec. IV-G): retry-same-level vs Moody escalation "
               "restart semantics, same Dauwe-selected plans\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: escalation only hurts, and the gap grows "
               "with failure rate (it is the wedge that makes Moody's "
               "model under-predict efficiency).\n";
  return 0;
}
