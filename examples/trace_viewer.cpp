// Trace viewer: simulate a single run with event tracing enabled and
// print the full wall-clock timeline — what the application was doing at
// every moment, which failures hit, and what each one cost.
//
//   $ ./trace_viewer [--system=D3] [--seed=4] [--max-events=60]
//
// Useful for building intuition about multilevel recovery (and for
// debugging protocol changes).
#include <iostream>

#include "engine/scenario.h"
#include "sim/simulator.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

const char* kind_name(mlck::sim::TraceEvent::Kind kind) {
  using Kind = mlck::sim::TraceEvent::Kind;
  switch (kind) {
    case Kind::kCompute: return "compute";
    case Kind::kCheckpoint: return "checkpoint";
    case Kind::kRestart: return "restart";
    case Kind::kScratchRestart: return "scratch-restart";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using mlck::util::Table;
  const mlck::util::Cli cli(argc, argv);
  const auto system =
      mlck::systems::table1_system(cli.get_string("system", "D3"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 4));
  const auto max_events =
      static_cast<std::size_t>(cli.get_int("max-events", 60));

  mlck::engine::ScenarioSpec spec;
  spec.system = system;
  const auto selected = mlck::engine::select_plan(spec);
  std::cout << "System " << system.name << ", plan "
            << selected.plan.to_string() << "\n\n";

  std::vector<mlck::sim::TraceEvent> trace;
  mlck::sim::SimOptions opts;
  opts.trace = &trace;
  mlck::sim::RandomFailureSource failures(system, mlck::util::Rng(seed));
  const auto result = mlck::sim::simulate(
      system, mlck::sim::CompiledSchedule::from_plan(system, selected.plan),
      failures, opts);

  Table table({"t (min)", "event", "level", "duration", "outcome"});
  for (std::size_t i = 0; i < trace.size() && i < max_events; ++i) {
    const auto& ev = trace[i];
    std::string outcome = "ok";
    if (!ev.completed) {
      // Built with += to sidestep a GCC 12 -Wrestrict false positive on
      // std::string operator+ chains.
      outcome = "failed (severity ";
      outcome += std::to_string(ev.failure_severity + 1);
      outcome += ")";
    }
    std::string level_cell = "-";
    if (ev.system_level >= 0) {
      level_cell = "L";
      level_cell += std::to_string(ev.system_level + 1);
    }
    table.add_row({Table::num(ev.start, 2), kind_name(ev.kind), level_cell,
                   Table::num(ev.end - ev.start, 2), outcome});
  }
  table.print(std::cout);
  if (trace.size() > max_events) {
    std::cout << "... " << trace.size() - max_events
              << " more events (raise --max-events)\n";
  }

  std::cout << "\nRun summary: " << Table::num(result.total_time, 1)
            << " min total, efficiency "
            << Table::pct(result.efficiency()) << ", " << result.failures
            << " failures, " << result.checkpoints_completed
            << " checkpoints, " << result.restarts_completed
            << " restarts (" << result.restarts_failed << " failed, "
            << result.scratch_restarts << " from scratch)\n";
  return 0;
}
