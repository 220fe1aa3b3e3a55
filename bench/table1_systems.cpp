// Reproduces paper Table I: the eleven test systems with their level
// counts, MTBFs, failure-severity distributions, checkpoint/restart
// costs, and baseline execution times.
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using mlck::util::Table;
  mlck::util::Cli::parse_or_exit(argc, argv, {});

  Table table({"test system", "num. C/R levels", "MTBF (min)",
               "failure distribution", "C/R time (min per level)",
               "baseline execution (min)"});
  for (const auto& sys : mlck::systems::table1_systems()) {
    std::ostringstream sev, cost;
    sev << '(';
    cost << '(';
    for (int l = 0; l < sys.levels(); ++l) {
      if (l) {
        sev << ", ";
        cost << ", ";
      }
      sev << sys.severity_probability[static_cast<std::size_t>(l)];
      cost << sys.checkpoint_cost[static_cast<std::size_t>(l)];
    }
    sev << ')';
    cost << ')';
    table.add_row({sys.name, std::to_string(sys.levels()),
                   Table::num(sys.mtbf, 2), sev.str(), cost.str(),
                   Table::num(sys.base_time, 1)});
  }
  std::cout << "Table I: multilevel checkpointing test systems\n";
  table.print(std::cout);
  return 0;
}
