#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "app/telemetry.h"
#include "engine/scenario.h"
#include "exp/experiments.h"
#include "exp/plot.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace mlck::bench {

/// Options shared by every experiment driver, expressed as a declarative
/// engine::ScenarioSpec template. Drivers set spec.system per sweep point
/// and pick and simulate plans through the engine (the wrappers below),
/// so the spec's failure law, model options and optimizer controls reach
/// the model as well as the simulator. The model is the driver's own:
/// figures run a lineup, ablations the Dauwe technique. Defaults
/// reproduce the paper's settings; --trials/--seed/--threads/--dist
/// override them, and --spec=file.json loads a whole scenario document
/// (--trials/--seed still win when given). --dist takes the `mlck --law`
/// grammar, exponential | weibull:shape=K | lognormal:sigma=S with
/// optional ,mean=M / ,scale=S; a malformed --dist or --seed exits 2.
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
  bool csv = false;
  std::string plot_prefix;  ///< --plot=prefix writes prefix.dat/.gp
  std::string trace_path;   ///< --trace=file writes the Chrome trace there
  std::unique_ptr<obs::TraceSink> trace_sink;

  explicit BenchConfig(const util::Cli& cli, std::size_t default_trials)
      : telemetry(cli) {
    if (const auto path = cli.value("spec"); path && !path->empty()) {
      spec = engine::ScenarioSpec::load(*path);
    } else {
      spec.trials = default_trials;
    }
    spec.model = "dauwe";
    try {
      app::apply_trials_and_seed(cli, spec);
    } catch (const std::out_of_range& e) {
      std::cerr << e.what() << "\n";
      std::exit(2);
    }
    if (const auto dist = cli.value("dist"); dist && !dist->empty()) {
      try {
        spec.distribution = engine::DistributionSpec::parse(*dist);
      } catch (const std::invalid_argument& e) {
        std::cerr << "--dist: " << e.what() << "\n";
        std::exit(2);
      }
    }
    csv = cli.get_bool("csv", false);
    plot_prefix = cli.get_string("plot", "");
    trace_path = cli.get_string("trace", "");
    pool = std::make_unique<util::ThreadPool>(
        app::pool_width(cli.get_int("threads", 0)));
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

  /// Writes <prefix>.dat and <prefix>.gp so `gnuplot <prefix>.gp` renders
  /// the efficiency figure; no-op when --plot was not given.
  void emit_efficiency_plot(const std::vector<exp::ScenarioResult>& rows,
                            const std::string& title) const {
    if (plot_prefix.empty() || rows.empty()) return;
    std::vector<std::string> names;
    for (const auto& o : rows.front().outcomes) {
      names.push_back(o.selected.technique);
    }
    std::ofstream dat(plot_prefix + ".dat");
    exp::write_efficiency_dat(dat, rows);
    std::ofstream gp(plot_prefix + ".gp");
    exp::write_efficiency_gp(gp, plot_prefix + ".dat", title, names,
                             plot_prefix + ".png");
    std::cerr << "[mlck] wrote " << plot_prefix << ".dat and "
              << plot_prefix << ".gp\n";
  }
};

/// Fails loudly on mistyped sweep parameters instead of running defaults.
inline void reject_unknown_flags(const util::Cli& cli) {
  const auto unknown = cli.unrecognized();
  if (!unknown.empty()) {
    std::cerr << "unknown option(s):";
    for (const auto& u : unknown) std::cerr << " --" << u;
    std::cerr << "\n";
    std::exit(2);
  }
}

/// Progress line to stderr so long sweeps are observable while stdout
/// stays a clean report.
inline void progress(const std::string& message) {
  std::cerr << "[mlck] " << message << "\n";
}

}  // namespace mlck::bench
