// Ablation for paper Sec. IV-D: what happens to interval selection and
// prediction accuracy when the model *ignores* failures during checkpoint
// and restart events (as Di et al. and Benoit et al. do). For each D-series
// system, intervals are selected twice — with the full Dauwe model and with
// the failed-event terms zeroed — and both plans are simulated.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "models/di.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto cli = mlck::bench::parse_options(argc, argv, "200");
  mlck::bench::BenchConfig cfg(cli);

  using mlck::util::Table;

  Table table({"system", "variant", "tau0", "sim eff", "pred eff",
               "pred err"});
  for (const auto& sys : mlck::systems::table1_systems()) {
    if (sys.name == "M" || sys.name == "B") continue;  // D-series focus
    mlck::bench::progress("ablation failed-events: " + sys.name);
    mlck::engine::ScenarioSpec spec = cfg.spec;
    spec.system = sys;
    for (const bool ablated : {false, true}) {
      if (ablated) spec.model_options = mlck::models::di_model_options();
      const auto out = cfg.run_scenario(spec);
      table.add_row({sys.name,
                     ablated ? "no failed C/R terms" : "full model",
                     Table::num(out.selected.plan.tau0, 3),
                     Table::pct(out.stats.efficiency.mean),
                     Table::pct(out.selected.predicted_efficiency),
                     Table::pct(out.prediction_error(), 2)});
    }
  }
  std::cout << "Ablation (Sec. IV-D): modeling failures during checkpoint "
               "and restart events\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: the ablated model chooses longer "
               "intervals and over-predicts efficiency, increasingly so "
               "toward D8/D9 where MTBF approaches the PFS cost.\n";
  return 0;
}
