// Embedded-runtime demo: how an application (or a checkpoint library)
// consults the CheckpointAdvisor at run time. The "application" here is a
// loop over work units with injected failures; every decision — when to
// checkpoint, at which level, what to reload after a crash — comes from
// the advisor.
//
//   $ ./embedded_runtime [--system=D2] [--seed=8]
#include <algorithm>
#include <iostream>

#include "engine/scenario.h"
#include "runtime/advisor.h"
#include "sim/failure_source.h"
#include "systems/test_systems.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Table;
  const mlck::util::Cli cli(argc, argv);
  const auto system =
      mlck::systems::table1_system(cli.get_string("system", "D2"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 8));

  // Plan once (e.g. at job-submission time)...
  mlck::engine::ScenarioSpec spec;
  spec.system = system;
  const auto selected = mlck::engine::select_plan(spec);
  std::cout << "plan: " << selected.plan.to_string() << "\n\n";

  // ...then embed the advisor in the run loop.
  mlck::runtime::CheckpointAdvisor advisor(system, selected.plan);
  mlck::sim::RandomFailureSource failures(system, mlck::util::Rng(seed));

  double now = 0.0, work = 0.0, next_failure = 0.0;
  int pending_severity = -1;
  const auto arm = [&] {
    const auto ev = failures.next();
    next_failure += ev.interarrival;
    pending_severity = ev.severity;
  };
  arm();
  // Runs a phase; returns interrupting severity or -1.
  const auto run_phase = [&](double duration) {
    if (now + duration <= next_failure) {
      now += duration;
      return -1;
    }
    now = next_failure;
    const int s = pending_severity;
    arm();
    return s;
  };

  Table log({"t (min)", "decision"});
  int shown = 0;
  const auto note = [&](const std::string& what) {
    if (shown < 25) log.add_row({Table::num(now, 1), what});
    ++shown;
  };

  long long checkpoints = 0, restarts = 0, scratches = 0;
  while (work < system.base_time) {
    const auto next = advisor.next_checkpoint(work);
    const double target =
        next ? std::min(next->work, system.base_time) : system.base_time;
    int s = run_phase(target - work);
    if (s < 0) {
      work = target;
      if (work >= system.base_time - 1e-9) break;
      s = run_phase(
          system.checkpoint_cost[std::size_t(next->system_level)]);
      if (s < 0) {
        advisor.record_checkpoint(work, next->system_level);
        ++checkpoints;
        note("checkpoint L" + std::to_string(next->system_level + 1) +
             " at work " + Table::num(work, 0));
        continue;
      }
    }
    // A failure interrupted computation or the checkpoint.
    auto recovery = advisor.on_failure(s);
    note("failure severity " + std::to_string(s + 1));
    for (;;) {
      if (recovery.from_scratch) {
        work = 0.0;
        ++scratches;
        note("no usable checkpoint: restart from scratch");
        break;
      }
      const int s2 = run_phase(
          system.restart_cost[std::size_t(recovery.system_level)]);
      if (s2 < 0) {
        work = recovery.restored_work;
        ++restarts;
        note("restored from L" +
             std::to_string(recovery.system_level + 1) + " (work " +
             Table::num(work, 0) + ")");
        break;
      }
      recovery = advisor.on_restart_failure(recovery, s2);
      note("restart interrupted (severity " + std::to_string(s2 + 1) +
           "), target now L" + std::to_string(recovery.system_level + 1));
    }
  }

  log.print(std::cout);
  if (shown > 25) std::cout << "... " << shown - 25 << " more decisions\n";
  std::cout << "\nfinished " << system.base_time << " min of work in "
            << Table::num(now, 1) << " min (efficiency "
            << Table::pct(system.base_time / now) << "); " << checkpoints
            << " checkpoints, " << restarts << " restarts, " << scratches
            << " scratch restarts\n";
  return 0;
}
