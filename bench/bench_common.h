#pragma once

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "app/telemetry.h"
#include "engine/scenario.h"
#include "exp/experiments.h"
#include "exp/plot.h"
#include "exp/report.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace mlck::bench {

/// --csv appends the efficiency rows to the report as CSV, and
/// --plot=prefix writes prefix.dat and prefix.gp for gnuplot. Only the
/// drivers that honour them declare them (fig2/4/5 both, fig6 --plot).
inline const util::Option kCsv{"csv", util::Option::kFlag};
inline const util::Option kPlot{"plot", util::Option::kPath};

/// Checks a driver's argv against the options every driver takes, with
/// --trials defaulting to @p trials, plus the driver's own @p extra ones;
/// a usage error exits 2 before any work.
inline util::Cli parse_options(int argc, char** argv, const char* trials,
                               std::vector<util::Option> extra = {}) {
  using util::Option;
  std::vector<Option> table = {{"spec", Option::kPath},
                               {"trials", Option::kInt, trials, 1},
                               {"seed", Option::kU64},
                               {"threads", Option::kInt, "0", 0, 1024},
                               app::law_option(),
                               {"trace", Option::kPath}};
  const auto telemetry = app::telemetry_options();
  table.insert(table.end(), telemetry.begin(), telemetry.end());
  table.insert(table.end(), extra.begin(), extra.end());
  return util::Cli::parse_or_exit(argc, argv, std::move(table));
}

/// Options shared by every experiment driver, expressed as a declarative
/// engine::ScenarioSpec template. Drivers set spec.system per sweep point
/// and pick and simulate plans through the engine (the wrappers below),
/// so the spec's failure law, model options and optimizer controls reach
/// the model as well as the simulator. The model is the driver's own:
/// figures run a lineup, ablations the Dauwe technique. Defaults
/// reproduce the paper's settings; --trials/--seed/--threads/--law
/// override them, and --spec=file.json loads a whole scenario document
/// (--trials/--seed still win when given). --law takes the `mlck` law
/// grammar (app::law_option).
/// Telemetry is always on (docs/OBSERVABILITY.md): the
/// app::TelemetryScope flags (--metrics/--openmetrics/--timeline) choose
/// the outputs, and --trace=file.json records host-side spans into a
/// Chrome trace-event file; both are written when the config is
/// destroyed, i.e. after the driver's sweep finishes.
struct BenchConfig {
  /// Declared before the pool, which holds pointers into its registry.
  app::TelemetryScope telemetry;
  engine::ScenarioSpec spec;
  std::unique_ptr<util::ThreadPool> pool;
  std::string trace_path;   ///< --trace=file writes the Chrome trace there
  std::unique_ptr<obs::TraceSink> trace_sink;

  /// @p cli comes from parse_options().
  explicit BenchConfig(const util::Cli& cli)
      : telemetry(cli), trace_path(cli.get_string("trace")) {
    if (const auto path = cli.value("spec")) {
      spec = engine::ScenarioSpec::load(*path);
    } else {
      spec.trials = static_cast<std::size_t>(cli.get_int("trials"));
    }
    spec.model = "dauwe";
    app::apply_trials_and_seed(cli, spec);
    if (const auto law = app::law_flag(cli)) spec.distribution = *law;
    pool = std::make_unique<util::ThreadPool>(
        app::pool_width(cli.get_int("threads")));
    // Trials run outside the engine (explicit laws) count under the same
    // names.
    spec.sim.metrics = &telemetry.metrics().sim;
    pool->attach_metrics(engine::pool_metrics(telemetry.registry()));
    if (!trace_path.empty()) {
      trace_sink = std::make_unique<obs::TraceSink>();
      trace_sink->name_current_thread("main");
      pool->attach_trace(trace_sink.get());
    }
  }

  ~BenchConfig() {
    // Best-effort sidecars; never fail the sweep's exit path.
    try {
      telemetry.flush(std::cerr);
    } catch (...) {
    }
    if (trace_sink != nullptr) {
      try {
        // The pool must stop before the sink dies: workers hold the sink
        // pointer and may be mid-span.
        pool.reset();
        std::ofstream out(trace_path);
        out << obs::chrome_trace_json(trace_sink.get(), nullptr).dump(2)
            << "\n";
        std::cerr << "[mlck] wrote trace " << trace_path << "\n";
      } catch (...) {
      }
    }
  }

  BenchConfig(const BenchConfig&) = delete;
  BenchConfig& operator=(const BenchConfig&) = delete;

  /// The engine entry points (exp::compare_models on spec) with this
  /// config's pool, telemetry registry and trace sink.
  core::TechniqueResult select_plan(const engine::ScenarioSpec& s) {
    return engine::select_plan(s, pool.get(), &telemetry.registry(),
                               trace_sink.get());
  }
  sim::TrialStats simulate_plan(const engine::ScenarioSpec& s,
                                const sim::CompiledSchedule& schedule) {
    return engine::simulate_plan(s, schedule, pool.get(),
                                 &telemetry.registry(), trace_sink.get());
  }
  engine::ScenarioOutcome run_scenario(const engine::ScenarioSpec& s) {
    return engine::run_scenario(s, pool.get(), &telemetry.registry(),
                                trace_sink.get());
  }
  exp::ScenarioResult compare_models(const std::string& label,
                                     const std::vector<std::string>& models) {
    return exp::compare_models(spec, label, models, pool.get(),
                               &telemetry.registry(), trace_sink.get());
  }
};

/// The --plot and --csv outputs of an efficiency figure: <prefix>.dat and
/// <prefix>.gp, so `gnuplot <prefix>.gp` renders it, then the CSV rows on
/// stdout. @p cli must declare kCsv and kPlot.
inline void emit_efficiency_outputs(
    const util::Cli& cli, const std::vector<exp::ScenarioResult>& rows,
    const std::string& title) {
  if (const auto prefix = cli.value("plot"); prefix && !rows.empty()) {
    std::vector<std::string> names;
    for (const auto& o : rows.front().outcomes) {
      names.push_back(o.selected.technique);
    }
    std::ofstream dat(*prefix + ".dat");
    exp::write_efficiency_dat(dat, rows);
    std::ofstream gp(*prefix + ".gp");
    exp::write_efficiency_gp(gp, *prefix + ".dat", title, names,
                             *prefix + ".png");
    std::cerr << "[mlck] wrote " << *prefix << ".dat and " << *prefix
              << ".gp\n";
  }
  if (cli.has("csv")) {
    std::cout << "\n";
    exp::write_efficiency_csv(std::cout, rows);
  }
}

/// Progress line to stderr so long sweeps are observable while stdout
/// stays a clean report.
inline void progress(const std::string& message) {
  std::cerr << "[mlck] " << message << "\n";
}

}  // namespace mlck::bench
