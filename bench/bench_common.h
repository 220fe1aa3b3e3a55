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
/// engine::ScenarioSpec template (the system field is filled in per sweep
/// point by each driver). Defaults reproduce the paper's settings;
/// --trials/--seed/--threads/--dist override them for quick runs or
/// non-exponential stress studies, and --spec=file.json loads a whole
/// scenario document (CLI flags still win afterwards). --dist takes the
/// `mlck --law` grammar, exponential | weibull:shape=K | lognormal:sigma=S
/// with optional ,mean=M / ,scale=S; a malformed value exits 2.
/// Telemetry is always on (simulator, optimizer and thread-pool counters;
/// docs/OBSERVABILITY.md): the app::TelemetryScope flags
/// (--metrics/--openmetrics/--timeline) choose the outputs, which are
/// written when the config is destroyed, i.e. after the driver's sweep
/// finishes. --trace=file.json likewise records host-side spans (pool
/// tasks, and the optimizer/engine phases where the driver runs them
/// through the spec) into a Chrome trace-event file on destruction.
struct BenchConfig {
  /// Declared before the pool, which holds pointers into its registry.
  app::TelemetryScope telemetry;
  engine::ScenarioSpec spec;
  std::unique_ptr<util::ThreadPool> pool;
  exp::ExperimentOptions options;  ///< derived from spec; what drivers use
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
      spec.seed = 20180521;
    }
    spec.trials = static_cast<std::size_t>(
        cli.get_int("trials", static_cast<int>(spec.trials)));
    spec.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", static_cast<int>(spec.seed)));
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
    spec.sim.metrics = &telemetry.metrics().sim;
    spec.optimizer.metrics = &telemetry.metrics().optimizer;
    pool->attach_metrics(engine::pool_metrics(telemetry.registry()));
    if (!trace_path.empty()) {
      trace_sink = std::make_unique<obs::TraceSink>();
      trace_sink->name_current_thread("main");
      spec.optimizer.trace = trace_sink.get();
      pool->attach_trace(trace_sink.get());
    }

    options.trials = spec.trials;
    options.seed = spec.seed;
    options.sim = spec.sim;
    options.pool = pool.get();
    // Distribution instantiation needs a concrete system (the default
    // mean is the system MTBF); drivers that sweep systems call
    // options_for(system) per point instead.
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

  /// Experiment options for one concrete system, with the scenario's
  /// failure distribution materialized against that system's MTBF. The
  /// returned options borrow @p distribution_storage, which must outlive
  /// their use.
  exp::ExperimentOptions options_for(
      const systems::SystemConfig& system,
      std::unique_ptr<const math::FailureDistribution>& distribution_storage)
      const {
    engine::ScenarioSpec point = spec;
    point.system = system;
    point.system_ref.clear();
    return exp::options_from(point, pool.get(), distribution_storage);
  }

  /// Writes <prefix>.dat and <prefix>.gp so `gnuplot <prefix>.gp` renders
  /// the efficiency figure; no-op when --plot was not given.
  void emit_efficiency_plot(const std::vector<exp::ScenarioResult>& rows,
                            const std::string& title) const {
    if (plot_prefix.empty() || rows.empty()) return;
    std::vector<std::string> names;
    for (const auto& o : rows.front().outcomes) names.push_back(o.technique);
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
