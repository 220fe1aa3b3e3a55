// Extension ablation: how robust is the exponential failure assumption —
// shared by every model the paper compares — when reality is not
// exponential? The same Dauwe-selected plans are simulated under renewal
// failure processes with identical MTBF but different inter-arrival laws:
// exponential (the modeling assumption), bursty Weibull (shape 0.7, the
// regime reported for production HPC logs), mild Weibull (shape 1.5), and
// log-normal. Each law is a declarative engine::DistributionSpec, so the
// whole study is four scenario variants per system.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "systems/test_systems.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const mlck::util::Cli cli(argc, argv);
  mlck::bench::BenchConfig cfg(cli, /*default_trials=*/200);
  mlck::bench::reject_unknown_flags(cli);

  using mlck::util::Table;

  Table table({"system", "distribution", "sim eff", "sd", "pred eff",
               "pred err"});
  for (const char* name : {"D1", "D3", "D5", "D7", "D8"}) {
    mlck::bench::progress("ablation failure-distribution: " +
                          std::string(name));
    cfg.spec.system = mlck::systems::table1_system(name);

    // One plan per system (selected under the spec's law, exponential by
    // default), then re-simulated under each law with the same seed.
    const auto selected = cfg.select_plan(cfg.spec);
    const auto schedule =
        mlck::sim::CompiledSchedule::from_plan(cfg.spec.system, selected.plan);

    // All four laws — including the exponential control — run through the
    // same renewal-source machinery so the rows differ only in the law.
    for (const char* law : {"exponential", "weibull:shape=0.7",
                            "weibull:shape=1.5", "lognormal:sigma=1"}) {
      const auto dist = mlck::engine::DistributionSpec::parse(law).make(
          cfg.spec.system);
      const auto stats = mlck::sim::run_trials(
          cfg.spec.system, schedule, dist.get(), cfg.spec.trials,
          cfg.spec.seed, cfg.spec.sim, cfg.pool.get());
      table.add_row({name, dist->describe(),
                     Table::pct(stats.efficiency.mean),
                     Table::pct(stats.efficiency.stddev),
                     Table::pct(selected.predicted_efficiency),
                     Table::pct(selected.predicted_efficiency -
                                    stats.efficiency.mean, 2)});
    }
  }
  std::cout << "Ablation (extension): sensitivity of the exponential "
               "failure assumption, Dauwe-selected plans\n";
  table.print(std::cout);
  std::cout << "\nExpected shape: the exponential rows track the model "
               "prediction; same-mean non-exponential laws move the "
               "realized efficiency away from it (bursty Weibull slightly "
               "up — failure clusters re-lose already-lost work while the "
               "long gaps between bursts run clean; log-normal similarly). "
               "The exponential assumption is a real model limitation, but "
               "a conservative one on these systems.\n";
  return 0;
}
